package inject

import (
	"strings"
	"testing"
)

// Fuzz targets double as robustness seeds under plain `go test`: the lexer
// and kernel finder must never panic and must preserve the input exactly on
// render, whatever bytes arrive.

func FuzzLexRoundTrip(f *testing.F) {
	seeds := []string{
		"",
		sampleSrc,
		"__global__ void k() {}",
		`"unterminated string`,
		"/* unterminated comment",
		"#define X \\\n 1",
		"'c' '\\'' \"\\\"\"",
		"\x00\xff\xfe binary junk {}/)",
		strings.Repeat("{", 1000),
		"__global__ __launch_bounds__(256) void k(int n) { return; }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks := Lex(src)
		if render(toks) != src {
			t.Fatalf("lex/render not lossless for %q", src)
		}
	})
}

func FuzzFindKernelsNeverPanics(f *testing.F) {
	seeds := []string{
		sampleSrc,
		"__global__",
		"__global__ void",
		"__global__ void k(",
		"__global__ void k() {",
		"__global__ void k() {}} extra",
		"extern \"C\" __global__ void k(void) { }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ks, err := FindKernels(src)
		if err != nil {
			return // malformed input is allowed to error, not panic
		}
		for _, k := range ks {
			if k.Name == "" {
				t.Fatal("kernel accepted without a name")
			}
		}
	})
}

func FuzzTransformNeverPanics(f *testing.F) {
	f.Add(sampleSrc, 10)
	f.Add("__global__ void k(int n) { if (n) return; }", 1)
	f.Add("__global__ void k(float *x) { x[blockIdx.x] = gridDim.x; }", 50)
	f.Fuzz(func(t *testing.T, src string, task int) {
		out, err := Transform(src, Options{TaskSize: task, EmitDispatcher: true})
		if err != nil {
			return
		}
		// Whatever transformed, it must still lex losslessly and keep
		// balanced braces at the token level.
		toks := Lex(out)
		if render(toks) != out {
			t.Fatal("transformed source does not round-trip")
		}
		depth := 0
		for _, tok := range toks {
			if tok.Kind == TokPunct {
				switch tok.Text {
				case "{":
					depth++
				case "}":
					depth--
				}
			}
		}
		if depth != 0 {
			t.Fatalf("transformed source has unbalanced braces (%+d)", depth)
		}
	})
}
