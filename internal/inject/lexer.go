// Package inject implements Slate's code injector (§IV-B): a CUDA-C scanner
// locates __global__ kernels in user source, and a source-to-source
// transformer rewrites each kernel into the Slate form — the SM-range guard
// of Listing 1, the task-queue worker loop of Listing 2, and the dispatch
// kernel of Listing 3 — while preserving user-kernel semantics by replacing
// the built-in blockIdx/gridDim with Slate-computed equivalents.
//
// The user body is extracted into a __device__ function, so early `return`
// statements keep their meaning inside the worker loop.
package inject

import (
	"fmt"
	"strings"
	"unicode"
)

// TokKind classifies lexer tokens.
type TokKind int

// Token kinds.
const (
	tokIdent TokKind = iota
	tokNumber
	tokString  // "..." or '...'
	tokComment // // or /* */
	tokPreproc // a full #... line
	TokPunct   // any single punctuation rune
	tokSpace   // whitespace run
)

// Token is one lexical unit with its source span.
type Token struct {
	Kind TokKind
	Text string
	Off  int // byte offset in the source
	Line int // 1-based line number
}

// Lex tokenizes CUDA-C source. It never fails: unknown bytes become
// TokPunct. Comments, strings, and preprocessor lines are kept as single
// tokens so the transformer cannot rewrite inside them.
func Lex(src string) []Token {
	// Every whitespace run and punctuation rune is a token, so CUDA-C runs
	// at two to three and a half bytes per token (examples/injection's unit
	// 2.1, its transformed form 3.5); sized for the dense end, the slice does
	// not grow.
	toks := make([]Token, 0, len(src)/2+1)
	line := 1
	i := 0
	n := len(src)
	emit := func(kind TokKind, start, end int) {
		toks = append(toks, Token{Kind: kind, Text: src[start:end], Off: start, Line: line})
		line += strings.Count(src[start:end], "\n")
	}
	for i < n {
		c := src[i]
		switch {
		case c == '\n' || c == ' ' || c == '\t' || c == '\r':
			j := i
			for j < n && (src[j] == '\n' || src[j] == ' ' || src[j] == '\t' || src[j] == '\r') {
				j++
			}
			emit(tokSpace, i, j)
			i = j
		case c == '#' && atLineStart(toks):
			// Preprocessor directive: runs to end of line, honoring
			// backslash continuations.
			j := i
			for j < n {
				if src[j] == '\n' && (j == 0 || src[j-1] != '\\') {
					break
				}
				j++
			}
			emit(tokPreproc, i, j)
			i = j
		case c == '/' && i+1 < n && src[i+1] == '/':
			j := i
			for j < n && src[j] != '\n' {
				j++
			}
			emit(tokComment, i, j)
			i = j
		case c == '/' && i+1 < n && src[i+1] == '*':
			j := i + 2
			for j+1 < n && !(src[j] == '*' && src[j+1] == '/') {
				j++
			}
			if j+1 < n {
				j += 2
			} else {
				j = n
			}
			emit(tokComment, i, j)
			i = j
		case c == '"' || c == '\'':
			quote := c
			j := i + 1
			for j < n && src[j] != quote {
				if src[j] == '\\' && j+1 < n {
					j++
				}
				j++
			}
			if j > n {
				j = n // unterminated literal ending in a backslash
			}
			if j < n {
				j++
			}
			emit(tokString, i, j)
			i = j
		case isIdentStart(rune(c)):
			j := i + 1
			for j < n && isIdentCont(rune(src[j])) {
				j++
			}
			emit(tokIdent, i, j)
			i = j
		case c >= '0' && c <= '9':
			j := i + 1
			for j < n && (isIdentCont(rune(src[j])) || src[j] == '.' ||
				((src[j] == '+' || src[j] == '-') && (src[j-1] == 'e' || src[j-1] == 'E'))) {
				j++
			}
			emit(tokNumber, i, j)
			i = j
		default:
			emit(TokPunct, i, i+1)
			i++
		}
	}
	return toks
}

func atLineStart(toks []Token) bool {
	for k := len(toks) - 1; k >= 0; k-- {
		t := toks[k]
		switch t.Kind {
		case tokSpace:
			if strings.Contains(t.Text, "\n") {
				return true
			}
		case tokComment:
			continue
		default:
			return false
		}
	}
	return true
}

func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentCont(r rune) bool  { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }

// render reassembles tokens into source text.
func render(toks []Token) string {
	var b strings.Builder
	for _, t := range toks {
		b.WriteString(t.Text)
	}
	return b.String()
}

// Kernel is one __global__ function found in user source.
type Kernel struct {
	Name string
	// Params is the raw text inside the parameter parentheses.
	Params string
	// Body is the raw text inside the outermost braces (exclusive).
	Body string
	// Line is the 1-based line of the __global__ qualifier.
	Line int
	// span indexes into the token stream: [start, end) covers the whole
	// definition including the closing brace.
	start, end int
	// paramStart/paramEnd index the parameter tokens (exclusive of parens).
	paramStart, paramEnd int
	// bodyStart/bodyEnd index the body tokens (exclusive of braces).
	bodyStart, bodyEnd int
}

// FindKernels locates every __global__ kernel definition in src.
func FindKernels(src string) ([]Kernel, error) {
	return FindKernelsIn(Lex(src))
}

// FindKernelsIn is FindKernels over an already lexed translation unit, for
// callers that need the tokens for something else too.
func FindKernelsIn(toks []Token) ([]Kernel, error) {
	var kernels []Kernel
	for i := 0; i < len(toks); i++ {
		if toks[i].Kind != tokIdent || toks[i].Text != "__global__" {
			continue
		}
		k, err := parseKernel(toks, i)
		if err != nil {
			return nil, fmt.Errorf("inject: line %d: %w", toks[i].Line, err)
		}
		kernels = append(kernels, k)
		i = k.end - 1
	}
	return kernels, nil
}

// parseKernel parses `__global__ [qualifiers] void name ( params ) { body }`.
func parseKernel(toks []Token, at int) (Kernel, error) {
	k := Kernel{Line: toks[at].Line, start: at}
	i := at + 1
	// Skip qualifiers until the name before '('. Parenthesized qualifiers
	// like __launch_bounds__(256[, minBlocks]) are skipped wholesale.
	var name string
	for ; i < len(toks); i++ {
		t := toks[i]
		if t.Kind == tokSpace || t.Kind == tokComment {
			continue
		}
		if t.Kind == TokPunct && t.Text == "(" {
			if name == "__launch_bounds__" {
				depth := 0
				for ; i < len(toks); i++ {
					if toks[i].Kind != TokPunct {
						continue
					}
					if toks[i].Text == "(" {
						depth++
					} else if toks[i].Text == ")" {
						depth--
						if depth == 0 {
							break
						}
					}
				}
				if i >= len(toks) {
					return k, fmt.Errorf("unbalanced __launch_bounds__")
				}
				name = ""
				continue
			}
			break
		}
		if t.Kind == tokIdent {
			name = t.Text
			continue
		}
		if t.Kind == tokString && strings.HasPrefix(t.Text, `"C"`) {
			continue // extern "C"
		}
		return k, fmt.Errorf("unexpected token %q in kernel signature", t.Text)
	}
	if i >= len(toks) {
		return k, fmt.Errorf("kernel signature missing parameter list")
	}
	if name == "" || name == "void" {
		return k, fmt.Errorf("could not determine kernel name")
	}
	k.Name = name

	// Parameter list: match parens.
	depth := 0
	pStart := i + 1
	for ; i < len(toks); i++ {
		if toks[i].Kind != TokPunct {
			continue
		}
		switch toks[i].Text {
		case "(":
			depth++
		case ")":
			depth--
			if depth == 0 {
				goto params
			}
		}
	}
	return k, fmt.Errorf("unbalanced parameter parentheses for kernel %s", name)
params:
	k.paramStart, k.paramEnd = pStart, i
	k.Params = strings.TrimSpace(render(toks[pStart:i]))
	i++

	// Find the opening brace.
	for ; i < len(toks); i++ {
		t := toks[i]
		if t.Kind == tokSpace || t.Kind == tokComment {
			continue
		}
		if t.Kind == TokPunct && t.Text == "{" {
			break
		}
		if t.Kind == TokPunct && t.Text == ";" {
			return k, fmt.Errorf("kernel %s is a declaration, not a definition", name)
		}
		return k, fmt.Errorf("unexpected token %q before kernel %s body", t.Text, name)
	}
	if i >= len(toks) {
		return k, fmt.Errorf("kernel %s has no body", name)
	}
	bStart := i + 1
	depth = 0
	for ; i < len(toks); i++ {
		if toks[i].Kind != TokPunct {
			continue
		}
		switch toks[i].Text {
		case "{":
			depth++
		case "}":
			depth--
			if depth == 0 {
				k.bodyStart, k.bodyEnd = bStart, i
				k.end = i + 1
				k.Body = render(toks[bStart:i])
				return k, nil
			}
		}
	}
	return k, fmt.Errorf("unbalanced braces in kernel %s", name)
}
