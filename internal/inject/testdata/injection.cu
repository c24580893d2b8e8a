// user application code
#include <cuda_runtime.h>

__global__ void saxpy(const float a, const float *x, float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;           // boundary guard keeps its meaning
    y[i] = a * x[i] + y[i];
}

__global__ void stencil2d(float *out, const float *in, int w, int h) {
    int cx = blockIdx.x * 16 + threadIdx.x;
    int cy = blockIdx.y * 16 + threadIdx.y;
    if (cx > 0 && cy > 0 && cx < w-1 && cy < h-1 && blockIdx.y < gridDim.y) {
        out[cy*w + cx] = 0.25f * (in[cy*w+cx-1] + in[cy*w+cx+1] +
                                  in[(cy-1)*w+cx] + in[(cy+1)*w+cx]);
    }
}
