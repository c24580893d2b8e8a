package inject

import (
	"fmt"
	"strings"
)

// defaultTaskSize is the SLATE_ITERS grouping a non-positive
// Options.TaskSize selects.
const defaultTaskSize = 10

// Options configures the transformation.
type Options struct {
	// TaskSize is the SLATE_ITERS grouping; <=0 selects defaultTaskSize.
	TaskSize int
	// EmitDispatcher also generates the Listing-3 dispatch kernel.
	EmitDispatcher bool
}

// Canonical returns opt with its defaults filled in. Two Options generate
// the same code exactly when their canonical forms are equal, so the
// canonical form is what a cache of transformed units keys on.
func (opt Options) Canonical() Options {
	if opt.TaskSize <= 0 {
		opt.TaskSize = defaultTaskSize
	}
	return opt
}

// prelude is the device runtime every transformed translation unit needs:
// the global queue cursor (slateIdx), the retreat flag, and the SM-id
// intrinsic wrapper.
const prelude = `// --- Slate device runtime (injected) ---
__device__ unsigned int slateIdx;
__device__ volatile int slateRetreat;
static __device__ __forceinline__ unsigned int slate_get_smid() {
    unsigned int r;
    asm("mov.u32 %0, %%smid;" : "=r"(r));
    return r;
}
// --- end Slate device runtime ---
`

// Transform rewrites every __global__ kernel in src into its Slate form and
// returns the complete transformed translation unit. Non-kernel code is
// preserved verbatim.
func Transform(src string, opt Options) (string, error) {
	opt = opt.Canonical()
	toks := Lex(src)
	if d := braceDelta(toks); d != 0 {
		return "", fmt.Errorf("inject: source has unbalanced braces (%+d at EOF)", d)
	}
	kernels, err := FindKernelsIn(toks)
	if err != nil {
		return "", err
	}
	if len(kernels) == 0 {
		return "", fmt.Errorf("inject: no __global__ kernels found")
	}
	var b strings.Builder
	b.WriteString(prelude)
	cursor := 0
	for _, k := range kernels {
		b.WriteString(render(toks[cursor:k.start]))
		gen, err := generate(toks, k, opt)
		if err != nil {
			return "", err
		}
		b.WriteString(gen)
		cursor = k.end
	}
	b.WriteString(render(toks[cursor:]))
	return b.String(), nil
}

// generate produces the device body function, the Slate worker kernel, and
// optionally the dispatcher for one kernel.
func generate(toks []Token, k Kernel, opt Options) (string, error) {
	body, nRepl := replaceBuiltins(toks[k.bodyStart:k.bodyEnd])
	_ = nRepl

	params := strings.TrimSpace(k.Params)
	callArgs, err := paramNames(toks[k.paramStart:k.paramEnd])
	if err != nil {
		return "", fmt.Errorf("inject: kernel %s: %w", k.Name, err)
	}

	var b strings.Builder
	// 1. The user body as a __device__ function: blockIdx/gridDim become
	// explicit arguments, so `return` keeps user semantics.
	fmt.Fprintf(&b, "__device__ void slate_body_%s(const uint3 slateBlockIdx, const dim3 slateGridDim%s) {\n",
		k.Name, prefixComma(params))
	b.WriteString(body)
	b.WriteString("\n}\n\n")

	// 2. The worker kernel: Listing 1's SM-range guard followed by
	// Listing 2's task loop.
	fmt.Fprintf(&b, "extern \"C\" __global__ void slate_%s(const unsigned int sm_low, const unsigned int sm_high,\n"+
		"        const unsigned int slateMax, const dim3 slateUserGrid%s) {\n", k.Name, prefixComma(params))
	fmt.Fprintf(&b, `    // --- Slate SM-range guard (Listing 1) ---
    __shared__ unsigned int slate_id;
    __shared__ int slate_valid_task;
    const int slate_leader = (threadIdx.x == 0 && threadIdx.y == 0 && threadIdx.z == 0);
    if (slate_leader) {
        slate_id = 0;
        const unsigned int slate_smid = slate_get_smid();
        slate_valid_task = !(slate_smid < sm_low || slate_smid > sm_high);
    }
    __syncthreads();
    if (!slate_valid_task) { return; }
    // --- Slate task loop (Listing 2) ---
    __shared__ uint3 slate_shared_blockID;
    __shared__ int slate_iters;
    unsigned int slate_globIdx;
    do {
        if (slate_leader) {
            slate_globIdx = atomicAdd(&slateIdx, %du);
            slate_iters = min(%d, (int)(slateMax - min(slate_globIdx, slateMax)));
            slate_id = slate_globIdx + %d;
            slate_shared_blockID.x = slate_globIdx %% slateUserGrid.x;
            slate_shared_blockID.y = slate_globIdx / slateUserGrid.x;
        }
        __syncthreads();
        uint3 slate_blockID = slate_shared_blockID;
        slate_blockID.x -= 1; // pre-increment form, Listing 2
        const int slate_local_iters = slate_iters;
        for (int slate_count = 0; slate_count < slate_local_iters; ++slate_count) {
            ++slate_blockID.x;
            if (slate_blockID.x == slateUserGrid.x) {
                slate_blockID.x = 0;
                ++slate_blockID.y;
            }
            slate_body_%s(slate_blockID, slateUserGrid%s);
            __syncthreads();
        }
    } while (!slateRetreat && slate_id < slateMax);
}
`, opt.TaskSize, opt.TaskSize, opt.TaskSize, k.Name, prefixComma(strings.Join(callArgs, ", ")))

	// 3. The dispatch kernel (Listing 3).
	if opt.EmitDispatcher {
		fmt.Fprintf(&b, `
extern "C" __global__ void slate_%sDispatcher(volatile unsigned int *start_sm, volatile unsigned int *end_sm,
        const unsigned int slateMax, const dim3 slateUserGrid, const unsigned int slateWorkers%s) {
    slateRetreat = 0;
    slateIdx = 0;
    do {
        // Launch the worker set bound to the current SM range; carry
        // slateIdx across relaunches (Listing 3).
        slate_%s<<<slateWorkers, dim3(1,1,1)>>>(*start_sm, *end_sm, slateMax, slateUserGrid%s);
        __threadfence();
        slateRetreat = 0;
    } while (slateIdx < slateMax);
}
`, k.Name, prefixComma(params), k.Name, prefixComma(strings.Join(callArgs, ", ")))
	}
	return b.String(), nil
}

// replaceBuiltins rewrites blockIdx → slateBlockIdx and gridDim →
// slateGridDim in a token stream, skipping comments, strings, and
// preprocessor lines. It returns the rewritten text and the replacement
// count.
func replaceBuiltins(toks []Token) (string, int) {
	var b strings.Builder
	n := 0
	for _, t := range toks {
		if t.Kind == tokIdent {
			switch t.Text {
			case "blockIdx":
				b.WriteString("slateBlockIdx")
				n++
				continue
			case "gridDim":
				b.WriteString("slateGridDim")
				n++
				continue
			}
		}
		b.WriteString(t.Text)
	}
	return b.String(), n
}

// paramNames extracts the declared names from the tokens of a C parameter
// list. It handles pointers, references, array suffixes, and default-free
// CUDA parameter declarations; it rejects unnamed parameters. The name a
// declaration declares is its last identifier outside [] and ().
func paramNames(toks []Token) ([]string, error) {
	var only *Token // the sole non-space token, if there is exactly one
	significant := 0
	for i := range toks {
		if toks[i].Kind != tokSpace {
			only = &toks[i]
			significant++
		}
	}
	if significant == 0 || (significant == 1 && only.Kind == tokIdent && only.Text == "void") {
		return nil, nil
	}
	var names []string
	// split nests (), <> and [], deciding which commas separate parameters;
	// suffix nests only [] and (), deciding which identifiers can be the
	// declared name.
	split, suffix := 0, 0
	name, start := "", 0
	flush := func(end int) error {
		if name == "" {
			return fmt.Errorf("unnamed parameter %q", strings.TrimSpace(render(toks[start:end])))
		}
		names = append(names, name)
		name, start, suffix = "", end+1, 0
		return nil
	}
	for i, t := range toks {
		switch t.Kind {
		case tokIdent:
			if suffix == 0 {
				name = t.Text
			}
		case TokPunct:
			switch t.Text {
			case "(", "[":
				split++
				suffix++
			case ")", "]":
				split--
				suffix--
			case "<":
				split++
			case ">":
				split--
			case ",":
				if split == 0 {
					if err := flush(i); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	if err := flush(len(toks)); err != nil {
		return nil, err
	}
	return names, nil
}

// braceDelta counts net brace depth at token level (strings and comments
// excluded); nonzero means the translation unit cannot compile.
func braceDelta(toks []Token) int {
	d := 0
	for _, t := range toks {
		if t.Kind != TokPunct {
			continue
		}
		switch t.Text {
		case "{":
			d++
		case "}":
			d--
		}
	}
	return d
}

func prefixComma(s string) string {
	if strings.TrimSpace(s) == "" {
		return ""
	}
	return ", " + s
}
