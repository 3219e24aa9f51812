package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //repro: directive vocabulary (comments must use exactly this
// prefix, no space after //):
//
//	//repro:hotpath
//	    On a function's doc comment: the function and everything it
//	    statically calls within the module must be allocation-free
//	    (enforced by the hotpath-alloc analyzer).
//
//	//repro:bitwise [justification]
//	    Sanctions float ==/!= on the directive's line (or the line
//	    below a standalone comment); on a doc comment, for the whole
//	    function. Used by the bitwise-reproducibility tests and
//	    exact-zero sparsity skips.
//
//	//repro:ignore <analyzer>[,<analyzer>...] [justification]
//	    Suppresses the named analyzers on the directive's line (or the
//	    line below); on a doc comment, for the whole function. For
//	    hotpath-alloc, an ignore on a call site also stops hot-path
//	    propagation into the callee, and a function-level ignore marks
//	    the function audited (skipped entirely).
//
//	//repro:dispatch
//	    On a package-level function variable's doc comment: the
//	    variable is a sanctioned dispatch point (bound once at init,
//	    e.g. the internal/simd kernel table). Hot-path code may call
//	    through it, and every module function assigned to it joins
//	    the hot-path walk; calls through any other package-level
//	    function variable are diagnosed.
//
//	//repro:worker-pool [justification]
//	    On a `go` statement's line (or the line above), or on the
//	    spawning function's doc comment: the spawned goroutines are a
//	    parked worker pool by design — they outlive the spawning call
//	    and wake on tokens. Exempts the goroutine-leak analyzer's join
//	    requirement and sanctions pooled-workspace capture by the
//	    pool's workers.
//
//	//repro:besteffort [justification]
//	    On a statement's line (or the line above), or on a function's
//	    doc comment: the discarded error there is best-effort by
//	    design (e.g. closing a trace file at process exit). Exempts
//	    errcheck-lite, including the writable defer-Close rule.
type directive struct {
	verb string   // "hotpath", "bitwise", "ignore"
	args []string // analyzer names for "ignore"
}

// Directives indexes every //repro: comment in the program by file and
// line, plus function-level directives (doc comments) by position
// range.
type Directives struct {
	line  map[string]map[int][]directive // file -> line -> directives
	funcs []funcDirectives
}

type funcDirectives struct {
	file       string
	start, end int // line range of the function body
	dirs       []directive
}

func buildDirectives(prog *Program) *Directives {
	d := &Directives{line: make(map[string]map[int][]directive)}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					dir, ok := parseDirective(c.Text)
					if !ok {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					byLine := d.line[pos.Filename]
					if byLine == nil {
						byLine = make(map[int][]directive)
						d.line[pos.Filename] = byLine
					}
					byLine[pos.Line] = append(byLine[pos.Line], dir)
				}
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				dirs := parseGroup(fd.Doc)
				if len(dirs) == 0 {
					continue
				}
				start := prog.Fset.Position(fd.Pos())
				end := prog.Fset.Position(fd.End())
				d.funcs = append(d.funcs, funcDirectives{
					file: start.Filename, start: start.Line, end: end.Line, dirs: dirs,
				})
			}
		}
	}
	return d
}

// parseDirective parses one comment line; ok is false for ordinary
// comments. Accepted forms: "//repro:verb", "//repro:ignore a,b why".
func parseDirective(text string) (directive, bool) {
	rest, ok := strings.CutPrefix(text, "//repro:")
	if !ok {
		return directive{}, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return directive{}, false
	}
	dir := directive{verb: fields[0]}
	if dir.verb == "ignore" && len(fields) > 1 {
		dir.args = strings.Split(fields[1], ",")
	}
	return dir, true
}

func parseGroup(cg *ast.CommentGroup) []directive {
	var dirs []directive
	for _, c := range cg.List {
		if d, ok := parseDirective(c.Text); ok {
			dirs = append(dirs, d)
		}
	}
	return dirs
}

// Ignored reports whether diagnostics from the named analyzer are
// suppressed at pos: a //repro:ignore naming the analyzer on the same
// line, on the line above (standalone comment), or in the enclosing
// function's doc comment.
func (d *Directives) Ignored(pos token.Position, analyzer string) bool {
	return d.match(pos, func(dir directive) bool {
		if dir.verb != "ignore" {
			return false
		}
		for _, a := range dir.args {
			if a == analyzer {
				return true
			}
		}
		return false
	})
}

// Bitwise reports whether a //repro:bitwise sanction covers pos (same
// line, line above, or enclosing function doc).
func (d *Directives) Bitwise(pos token.Position) bool {
	return d.match(pos, func(dir directive) bool { return dir.verb == "bitwise" })
}

// WorkerPool reports whether a //repro:worker-pool sanction covers pos
// (same line, line above, or enclosing function doc).
func (d *Directives) WorkerPool(pos token.Position) bool {
	return d.match(pos, func(dir directive) bool { return dir.verb == "worker-pool" })
}

// BestEffort reports whether a //repro:besteffort sanction covers pos
// (same line, line above, or enclosing function doc).
func (d *Directives) BestEffort(pos token.Position) bool {
	return d.match(pos, func(dir directive) bool { return dir.verb == "besteffort" })
}

func (d *Directives) match(pos token.Position, pred func(directive) bool) bool {
	if byLine := d.line[pos.Filename]; byLine != nil {
		for _, line := range [2]int{pos.Line, pos.Line - 1} {
			for _, dir := range byLine[line] {
				if pred(dir) {
					return true
				}
			}
		}
	}
	for _, fr := range d.funcs {
		if fr.file == pos.Filename && fr.start <= pos.Line && pos.Line <= fr.end {
			for _, dir := range fr.dirs {
				if pred(dir) {
					return true
				}
			}
		}
	}
	return false
}

// hasVerb reports whether a doc comment group carries the directive
// verb (e.g. "hotpath" roots, function-level "ignore" audits).
func hasVerb(cg *ast.CommentGroup, verb string) bool {
	if cg == nil {
		return false
	}
	for _, dir := range parseGroup(cg) {
		if dir.verb == verb {
			return true
		}
	}
	return false
}

// funcIgnores reports whether a doc comment group suppresses the named
// analyzer for the whole function.
func funcIgnores(cg *ast.CommentGroup, analyzer string) bool {
	if cg == nil {
		return false
	}
	for _, dir := range parseGroup(cg) {
		if dir.verb != "ignore" {
			continue
		}
		for _, a := range dir.args {
			if a == analyzer {
				return true
			}
		}
	}
	return false
}
