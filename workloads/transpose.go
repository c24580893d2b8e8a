package workloads

import (
	"slate/internal/kern"
	"slate/internal/traces"
)

// Transpose model calibration (Table II: Low compute, High memory,
// 0.0 GFLOP/s, 568.6 GB/s reported by nvprof — above the 482 GB/s
// effective pin bandwidth because nvprof counts L2 sector traffic; our
// model tops out at the pin ceiling, still the most memory-intense kernel
// in the set and classified High). An 8192² float32 matrix in 32×32 tiles
// of 32×8-thread blocks, shared-memory staged so both the read and the
// write are coalesced.
const (
	trMatrixN = 8192
	trTileDim = 32
	// Each block transposes a 2×2 group of 32×32 tiles (a 64×64 patch),
	// amortizing launch and queue costs over 32 KiB of traffic.
	trPatchDim      = 64
	trGrid          = trMatrixN / trPatchDim // 128
	trBytesPerBlock = 2 * trPatchDim * trPatchDim * 4
	trOpsPerBlock   = 8e4
	trInstrPerBlock = 1.28e4
)

// TR returns the calibrated Transpose model kernel.
func TR() *kern.Spec {
	return &kern.Spec{
		Name:            "TR",
		Grid:            kern.D2(trGrid, trGrid),
		BlockDim:        kern.D2(trTileDim, 8),
		MemMLP:          8,
		RegsPerThread:   18,
		SharedMemBytes:  trTileDim * (trTileDim + 1) * 4, // +1 pad avoids bank conflicts
		FLOPsPerBlock:   0,
		InstrPerBlock:   trInstrPerBlock,
		L2BytesPerBlock: trBytesPerBlock,
		ComputeEff:      0.30, // address arithmetic only
		OpsPerBlock:     trOpsPerBlock,
		Pattern: traces.Streaming{
			Blocks:        4096, // periodic sample of the grid
			BytesPerBlock: trBytesPerBlock,
			LineBytes:     64,
		},
	}
}

// TransposeApp returns the application wrapper for Fig. 6/7 experiments.
func TransposeApp() *App {
	return &App{
		Code:             "TR",
		FullName:         "Transpose",
		Kernel:           TR(),
		InputBytes:       trMatrixN * trMatrixN * 4,
		OutputBytes:      trMatrixN * trMatrixN * 4,
		HostSetupSeconds: 0.25,
	}
}

// Transpose is the real computation: Out = Inᵀ for an n×n float32 matrix,
// tiled in 32×32 blocks.
type Transpose struct {
	N       int
	In, Out []float32
	gridX   int
}

// NewTranspose allocates an n×n problem (n must be a multiple of 64) with
// In[i][j] = i*n+j, which makes verification trivial.
func NewTranspose(n int) *Transpose {
	if n%trPatchDim != 0 {
		panic("workloads: transpose size must be a multiple of 64")
	}
	t := &Transpose{
		N:     n,
		In:    make([]float32, n*n),
		Out:   make([]float32, n*n),
		gridX: n / trPatchDim,
	}
	for i := range t.In {
		t.In[i] = float32(i)
	}
	return t
}

// Kernel returns an executable spec: block blk transposes the 64×64 patch
// (blk%gridX, blk/gridX).
func (t *Transpose) Kernel() *kern.Spec {
	spec := TR()
	spec.Grid = kern.D2(t.gridX, t.gridX)
	n := t.N
	spec.Exec = func(blk int) {
		bx := blk % t.gridX
		by := blk / t.gridX
		i0, j0 := by*trPatchDim, bx*trPatchDim
		iMax, jMax := i0+trPatchDim, j0+trPatchDim
		if iMax > n {
			iMax = n
		}
		if jMax > n {
			jMax = n
		}
		for i := i0; i < iMax; i++ {
			for j := j0; j < jMax; j++ {
				t.Out[j*n+i] = t.In[i*n+j]
			}
		}
	}
	return spec
}

// Verify reports whether Out is exactly Inᵀ.
func (t *Transpose) Verify() bool {
	n := t.N
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if t.Out[j*n+i] != t.In[i*n+j] {
				return false
			}
		}
	}
	return true
}
