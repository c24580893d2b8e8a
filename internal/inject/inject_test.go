package inject

import (
	"os"
	"strings"
	"testing"
)

const sampleSrc = `
#include <cuda_runtime.h>
// user helper
__device__ float scale(float v) { return v * 2.0f; }

__global__ void axpy(const float a, const float *x, float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return; // boundary guard
    y[i] = a * x[i] + y[i];
}

__global__ void tile2d(float *out, const float *in, int w, int h) {
    int cx = blockIdx.x * 16 + threadIdx.x;
    int cy = blockIdx.y * 16 + threadIdx.y;
    /* gridDim in a comment: blockIdx should not change here */
    const char *msg = "blockIdx gridDim in a string";
    (void)msg;
    if (cx < w && cy < h && blockIdx.y < gridDim.y) {
        out[cy * w + cx] = in[cx * h + cy];
    }
}
`

func TestLexRoundTrips(t *testing.T) {
	toks := Lex(sampleSrc)
	if render(toks) != sampleSrc {
		t.Fatal("lex/render does not round-trip")
	}
}

func TestLexClassification(t *testing.T) {
	toks := Lex(`#define X 1
// comment
/* block */ "str\"ing" 'c' ident 42 1.5e-3 +`)
	kinds := map[TokKind]int{}
	for _, tk := range toks {
		kinds[tk.Kind]++
	}
	if kinds[tokPreproc] != 1 {
		t.Errorf("preproc tokens = %d, want 1", kinds[tokPreproc])
	}
	if kinds[tokComment] != 2 {
		t.Errorf("comment tokens = %d, want 2", kinds[tokComment])
	}
	if kinds[tokString] != 2 {
		t.Errorf("string tokens = %d, want 2", kinds[tokString])
	}
	if kinds[tokIdent] != 1 {
		t.Errorf("ident tokens = %d, want 1", kinds[tokIdent])
	}
	if kinds[tokNumber] != 2 {
		t.Errorf("number tokens = %d, want 2", kinds[tokNumber])
	}
}

func TestFindKernels(t *testing.T) {
	ks, err := FindKernels(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 2 {
		t.Fatalf("found %d kernels, want 2", len(ks))
	}
	if ks[0].Name != "axpy" || ks[1].Name != "tile2d" {
		t.Fatalf("kernel names = %s, %s", ks[0].Name, ks[1].Name)
	}
	if !strings.Contains(ks[0].Params, "const float a") {
		t.Errorf("axpy params = %q", ks[0].Params)
	}
	if !strings.Contains(ks[0].Body, "y[i] = a * x[i] + y[i];") {
		t.Errorf("axpy body truncated: %q", ks[0].Body)
	}
	// The __device__ helper must not be picked up.
	for _, k := range ks {
		if k.Name == "scale" {
			t.Error("device helper misidentified as kernel")
		}
	}
}

func TestFindKernelsErrors(t *testing.T) {
	cases := []string{
		`__global__ void broken(int a { }`,           // unbalanced parens
		`__global__ void broken(int a) { if (a) { }`, // unbalanced braces
		`__global__ void decl(int a);`,               // declaration only
	}
	for i, src := range cases {
		if _, err := FindKernels(src); err == nil {
			t.Errorf("case %d: malformed kernel accepted", i)
		}
	}
}

func TestTransformStructure(t *testing.T) {
	out, err := Transform(sampleSrc, Options{TaskSize: 10, EmitDispatcher: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"__device__ unsigned int slateIdx;",            // prelude
		"slate_get_smid",                               // SM-id intrinsic
		"__device__ void slate_body_axpy(",             // extracted body
		"extern \"C\" __global__ void slate_axpy(",     // worker kernel
		"const unsigned int sm_low",                    // injected SM range args
		"atomicAdd(&slateIdx, 10u)",                    // task pull
		"while (!slateRetreat && slate_id < slateMax)", // Listing 2 loop condition
		"slate_axpyDispatcher",                         // Listing 3
		"slate_tile2dDispatcher",
		"__device__ void slate_body_tile2d(",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transformed source missing %q", want)
		}
	}
	// The user helper survives verbatim.
	if !strings.Contains(out, "__device__ float scale(float v)") {
		t.Error("non-kernel code not preserved")
	}
}

func TestTransformReplacesBuiltinsOnlyInCode(t *testing.T) {
	out, err := Transform(sampleSrc, Options{TaskSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Inside the extracted bodies, blockIdx/gridDim must be gone.
	bodyStart := strings.Index(out, "slate_body_tile2d")
	bodyEnd := strings.Index(out[bodyStart:], "extern \"C\"")
	body := out[bodyStart : bodyStart+bodyEnd]
	for _, tok := range Lex(body) {
		if tok.Kind == tokIdent && (tok.Text == "blockIdx" || tok.Text == "gridDim") {
			t.Fatalf("unreplaced builtin %q in transformed body", tok.Text)
		}
	}
	// The comment and string literal keep their original text.
	if !strings.Contains(out, "gridDim in a comment: blockIdx should not change here") {
		t.Error("comment was rewritten")
	}
	if !strings.Contains(out, `"blockIdx gridDim in a string"`) {
		t.Error("string literal was rewritten")
	}
	// The rewritten condition uses the Slate equivalents.
	if !strings.Contains(out, "slateBlockIdx.y < slateGridDim.y") {
		t.Error("builtins not rewritten to Slate equivalents")
	}
}

func TestTransformPreservesReturnSemantics(t *testing.T) {
	out, err := Transform(sampleSrc, Options{TaskSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	// The boundary-guard return lives inside the __device__ body function,
	// where it only ends that block's work — not the worker loop.
	bodyStart := strings.Index(out, "__device__ void slate_body_axpy(")
	loopStart := strings.Index(out, "extern \"C\" __global__ void slate_axpy(")
	if bodyStart < 0 || loopStart < 0 || bodyStart > loopStart {
		t.Fatal("body function must precede worker kernel")
	}
	if !strings.Contains(out[bodyStart:loopStart], "return; // boundary guard") {
		t.Error("user return not preserved in body function")
	}
}

func TestTransformDefaultTaskSize(t *testing.T) {
	out, err := Transform(sampleSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "atomicAdd(&slateIdx, 10u)") {
		t.Error("default task size not applied")
	}
}

func TestTransformNoKernels(t *testing.T) {
	if _, err := Transform("__device__ int f() { return 1; }", Options{}); err == nil {
		t.Fatal("source without kernels accepted")
	}
}

func TestParamNames(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"const float a, const float *x, float *y, int n", []string{"a", "x", "y", "n"}},
		{"float data[256], unsigned long long seed", []string{"data", "seed"}},
		{"", nil},
		{"void", nil},
		// Separators and brackets inside a comment are not structure.
		{"int a /* b, c[ */, int d", []string{"a", "d"}},
	}
	for _, c := range cases {
		got, err := paramNames(Lex(c.in))
		if err != nil {
			t.Errorf("paramNames(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("paramNames(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("paramNames(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestExternCKernel(t *testing.T) {
	src := `extern "C" __global__ void k(int n) { if (n) return; }`
	// extern "C" precedes __global__, so the scanner starts at __global__
	// and must still find the name.
	ks, err := FindKernels(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 1 || ks[0].Name != "k" {
		t.Fatalf("kernels = %+v", ks)
	}
}

func TestLaunchBoundsQualifier(t *testing.T) {
	src := `__global__ void __launch_bounds__(256, 2) bounded(float *x, int n) {
		int i = blockIdx.x * 256 + threadIdx.x;
		if (i < n) x[i] = 0;
	}
	__global__ __launch_bounds__(128) void alsoBounded(int n) { if (n) return; }`
	ks, err := FindKernels(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 2 || ks[0].Name != "bounded" || ks[1].Name != "alsoBounded" {
		t.Fatalf("kernels = %+v", ks)
	}
	if !strings.Contains(ks[0].Params, "float *x") {
		t.Fatalf("params = %q", ks[0].Params)
	}
	out, err := Transform(src, Options{TaskSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "slate_bounded") || !strings.Contains(out, "slate_alsoBounded") {
		t.Fatal("launch_bounds kernels not transformed")
	}
}

// Transform's output is pinned byte for byte: testdata/injection.cu is the
// translation unit examples/injection transforms, and the golden is what the
// two-pass lexer produced for it at task size 10 before Transform lexed once.
func TestTransformGolden(t *testing.T) {
	in, err := os.ReadFile("testdata/injection.cu")
	if err != nil {
		t.Fatal(err)
	}
	example, err := os.ReadFile("../../examples/injection/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(example), "`"+string(in)+"`") {
		t.Fatal("testdata/injection.cu is no longer the source examples/injection transforms")
	}
	want, err := os.ReadFile("testdata/injection_ts10.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Transform(string(in), Options{TaskSize: 10, EmitDispatcher: true})
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Transform output changed (%d bytes, golden has %d)", len(got), len(want))
	}
}
