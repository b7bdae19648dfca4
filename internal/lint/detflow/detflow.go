// Package detflow guards the determinism contract of causally guided
// recovery: replayed execution must reproduce the original byte stream,
// so nondeterminism may only enter through the services layer, where it
// is logged as a determinant. Three rules, two tiers:
//
//  1. Strict tier (causal, inflight, codec, statestore, types): any
//     direct time.Now/time.Since or math/rand use is an error. These
//     packages sit below the determinant log, so there is no sanctioned
//     way for them to observe nondeterminism. (This subsumes the
//     determinism half the nosleepwait analyzer used to carry.)
//
//  2. Taint tier (job, checkpoint): wall-clock and randomness are legal
//     for control-plane timing (alignment budgets, coordinator
//     intervals), but a tainted value must not reach a replay-sensitive
//     sink — the codec encode path, the state store, a fingerprint hash,
//     encoding/binary, or a non-ephemeral //clonos:mainthread state
//     field. Passing the value to internal/causal or internal/services
//     first (Append* determinant logging) sanitizes it: the replay will
//     see the same bytes.
//
//  3. Order rules (both tiers plus operator): ranging over a map whose
//     body feeds an encoder/hasher/determinant is flagged — iteration
//     order would leak into persisted bytes; collect and sort keys
//     first. And a //clonos:mainthread function (a replay/serve path)
//     may not select over multiple value-binding channel receives:
//     arrival order is nondeterministic and unlogged. Declare a
//     deliberate exception with `//clonos:det-source <reason>` on the
//     select.
package detflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"clonos/internal/lint/analysis"
)

// Analyzer is the detflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "detflow",
	Doc: "nondeterminism (wall clock, math/rand, map order, multi-channel " +
		"selects) must not reach replayed state or encoded bytes except through " +
		"internal/services determinants",
	Run: run,
}

// strictPkgs sit below the determinant log: no direct nondeterminism at all.
var strictPkgs = map[string]bool{
	"clonos/internal/causal":     true,
	"clonos/internal/inflight":   true,
	"clonos/internal/codec":      true,
	"clonos/internal/statestore": true,
	"clonos/internal/types":      true,
}

// taintPkgs may read the clock for control-plane decisions but must not
// let the value flow into replay-sensitive sinks.
var taintPkgs = map[string]bool{
	"clonos/internal/job":        true,
	"clonos/internal/checkpoint": true,
}

// rangePkgs additionally get the map-iteration-order rule; operator hosts
// the hand-written state codecs whose byte output must be key-sorted.
var extraRangePkgs = map[string]bool{
	"clonos/internal/operator": true,
}

const (
	markerMainthread = "clonos:mainthread"
	markerEphemeral  = "clonos:ephemeral"
	markerDetSource  = "clonos:det-source"
)

func run(pass *analysis.Pass) (any, error) {
	path := pass.Pkg.Path()
	strict, taint := strictPkgs[path], taintPkgs[path]
	if !strict && !taint && !extraRangePkgs[path] {
		return nil, nil
	}
	c := &checker{pass: pass, mainFields: map[types.Object]bool{}, ephFields: map[types.Object]bool{}}
	c.collectFieldMarkers()
	for _, f := range pass.Files {
		if pass.TestFiles[f] {
			continue
		}
		if strict {
			c.checkStrict(f)
		}
		c.checkRanges(f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if taint {
				c.checkTaint(fd)
			}
			if analysis.CommentHas(fd.Doc, markerMainthread) {
				c.checkSelects(f, fd)
			}
		}
	}
	return nil, nil
}

type checker struct {
	pass       *analysis.Pass
	mainFields map[types.Object]bool
	ephFields  map[types.Object]bool
}

// collectFieldMarkers records this package's //clonos:mainthread and
// //clonos:ephemeral struct fields: a tainted store into a main-thread,
// non-ephemeral field is a sink (that state is replayed), while ephemeral
// fields are control-plane scratch and exempt.
func (c *checker) collectFieldMarkers() {
	for _, f := range c.pass.Files {
		if c.pass.TestFiles[f] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				main := analysis.CommentHas(field.Doc, markerMainthread) || analysis.CommentHas(field.Comment, markerMainthread)
				eph := analysis.CommentHas(field.Doc, markerEphemeral) || analysis.CommentHas(field.Comment, markerEphemeral)
				for _, name := range field.Names {
					obj := c.pass.TypesInfo.Defs[name]
					if obj == nil {
						continue
					}
					if main {
						c.mainFields[obj] = true
					}
					if eph {
						c.ephFields[obj] = true
					}
				}
			}
			return true
		})
	}
}

// checkStrict bans direct wall-clock and randomness below the
// determinant log.
func (c *checker) checkStrict(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.pass.TypesInfo.Uses[id]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		var what string
		switch obj.Pkg().Path() {
		case "time":
			if obj.Name() == "Now" || obj.Name() == "Since" {
				what = "time." + obj.Name()
			}
		case "math/rand", "math/rand/v2":
			what = "rand." + obj.Name()
		}
		if what == "" || c.pass.Allowed(id.Pos()) {
			return true
		}
		c.pass.Reportf(id.Pos(),
			"%s in deterministic protocol package %s: nondeterminism must flow through internal/services determinants",
			what, c.pass.Pkg.Path())
		return true
	})
}

// checkRanges flags map iteration whose body feeds an order-sensitive
// sink: the persisted byte order would depend on Go's randomized map
// walk. Key-collection loops (append into a slice, sort, iterate) pass.
func (c *checker) checkRanges(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := c.pass.TypesInfo.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		var sink *ast.CallExpr
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			if sink != nil {
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if ok && c.isOrderSensitive(call) {
				sink = call
			}
			return true
		})
		if sink == nil || c.pass.Allowed(rs.Pos()) {
			return true
		}
		c.pass.Reportf(rs.Pos(),
			"map iteration order reaches %s: encoded bytes would differ run to run; collect and sort the keys first",
			calleeName(c.pass, sink))
		return true
	})
}

// isOrderSensitive reports whether a call persists bytes whose order the
// caller controls: codec encoders, binary appends, hashes, determinant
// appends, or any local Encode* helper. The size pass of an encoder
// (codec.Sizer's EncodedSize, codec.FramedSize, the varint lengths) only
// adds numbers up, and a sum is the same in any order.
func (c *checker) isOrderSensitive(call *ast.CallExpr) bool {
	fn := callee(c.pass, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	switch {
	case strings.HasSuffix(name, "Size") || strings.HasSuffix(name, "Len"):
		return false
	case pkg == "clonos/internal/codec":
		return true
	case pkg == "encoding/binary" && (strings.HasPrefix(name, "Append") || strings.HasPrefix(name, "Put")):
		return true
	case strings.HasPrefix(pkg, "hash") || strings.HasPrefix(pkg, "crypto"):
		return true
	case pkg == "clonos/internal/causal" && strings.HasPrefix(name, "Append"):
		return true
	case strings.HasPrefix(name, "Encode") || strings.HasPrefix(name, "encode"):
		return true
	}
	return false
}

// checkSelects enforces single-bound-receive selects on replay paths.
func (c *checker) checkSelects(f *ast.File, fd *ast.FuncDecl) {
	// det-source declarations are standalone comments ("//clonos:det-source
	// <reason>"), matched by prefix so prose mentions don't count.
	declared := map[int]string{} // line of the comment -> reason ("" = missing)
	for _, cg := range f.Comments {
		for _, cm := range cg.List {
			if strings.HasPrefix(cm.Text, "//"+markerDetSource) {
				declared[c.pass.Fset.Position(cm.Pos()).Line] = strings.TrimSpace(cm.Text[2+len(markerDetSource):])
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closures run off-thread; mainthread does not propagate
		}
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		bound := 0
		for _, cl := range sel.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			if as, ok := cc.Comm.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
				if u, ok := as.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					bound++
				}
			}
		}
		if bound < 2 {
			return true
		}
		line := c.pass.Fset.Position(sel.Pos()).Line
		for _, l := range []int{line, line - 1} {
			if reason, ok := declared[l]; ok {
				if reason == "" {
					c.pass.Reportf(sel.Pos(), "//clonos:det-source needs a reason: why is the arrival order harmless on replay?")
				}
				return true
			}
		}
		if c.pass.Allowed(sel.Pos()) {
			return true
		}
		c.pass.Reportf(sel.Pos(),
			"select binds values from %d channels in a replay path (//clonos:mainthread): arrival order is nondeterministic and unlogged; funnel through one mailbox or annotate //clonos:det-source <reason>",
			bound)
		return true
	})
}

// --- taint tier ---

type taintWalker struct {
	c       *checker
	tainted map[types.Object]bool
}

// checkTaint runs the function-local taint pass: wall-clock/rand values
// propagate through assignments and expressions; determinant logging
// (internal/causal, internal/services) sanitizes; codec/statestore/hash/
// binary calls and main-thread state stores are sinks.
func (c *checker) checkTaint(fd *ast.FuncDecl) {
	tw := &taintWalker{c: c, tainted: map[types.Object]bool{}}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			tw.assign(n)
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if len(n.Values) == len(n.Names) {
					tw.setIdent(name, tw.taintOf(n.Values[i]))
				} else if len(n.Values) == 1 {
					tw.setIdent(name, tw.taintOf(n.Values[0]))
				}
			}
		case *ast.CallExpr:
			tw.checkCall(n)
		}
		return true
	})
}

func (tw *taintWalker) assign(as *ast.AssignStmt) {
	oneToMany := len(as.Rhs) == 1 && len(as.Lhs) > 1
	for i, lhs := range as.Lhs {
		var t bool
		if oneToMany {
			t = tw.taintOf(as.Rhs[0])
		} else if i < len(as.Rhs) {
			t = tw.taintOf(as.Rhs[i])
		}
		if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
			t = t || tw.taintOf(lhs) // op-assign keeps existing taint
		}
		tw.setTarget(lhs, t)
	}
}

func (tw *taintWalker) setTarget(lhs ast.Expr, t bool) {
	if id, ok := lhs.(*ast.Ident); ok {
		tw.setIdent(id, t)
		return
	}
	if !t {
		return
	}
	if obj := writtenField(tw.c.pass, lhs); obj != nil &&
		tw.c.mainFields[obj] && !tw.c.ephFields[obj] && !tw.c.pass.Allowed(lhs.Pos()) {
		tw.c.pass.Reportf(lhs.Pos(),
			"wall-clock/random-derived value stored in main-thread state field %s: replay would diverge; log it as a determinant through internal/services, or declare the field //clonos:ephemeral",
			obj.Name())
	}
}

func (tw *taintWalker) setIdent(id *ast.Ident, t bool) {
	obj := tw.c.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = tw.c.pass.TypesInfo.Uses[id]
	}
	if obj == nil || id.Name == "_" {
		return
	}
	if t {
		tw.tainted[obj] = true
	} else {
		delete(tw.tainted, obj)
	}
}

func (tw *taintWalker) checkCall(call *ast.CallExpr) {
	fn := callee(tw.c.pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkg := fn.Pkg().Path()
	if pkg == "clonos/internal/causal" || pkg == "clonos/internal/services" {
		// Determinant logging: the replayed run sees the same value.
		for _, a := range call.Args {
			ast.Inspect(a, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := tw.c.pass.TypesInfo.Uses[id]; obj != nil {
						delete(tw.tainted, obj)
					}
				}
				return true
			})
		}
		return
	}
	sink := sinkDescription(pkg, fn.Name())
	if sink == "" {
		return
	}
	for _, a := range call.Args {
		if tw.taintOf(a) && !tw.c.pass.Allowed(a.Pos()) {
			tw.c.pass.Reportf(a.Pos(),
				"wall-clock/random-derived value flows into %s: replayed bytes would diverge; log it as a determinant through internal/services first",
				sink)
		}
	}
}

func sinkDescription(pkg, name string) string {
	switch {
	case pkg == "clonos/internal/codec":
		return "the codec encode path"
	case pkg == "clonos/internal/statestore":
		return "the state store"
	case pkg == "encoding/binary" && (strings.HasPrefix(name, "Append") || strings.HasPrefix(name, "Put")):
		return "the binary encode path"
	case strings.HasPrefix(pkg, "hash") || strings.HasPrefix(pkg, "crypto"):
		return "a fingerprint hash"
	}
	return ""
}

func (tw *taintWalker) taintOf(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := tw.c.pass.TypesInfo.Uses[e]
		return obj != nil && tw.tainted[obj]
	case *ast.ParenExpr:
		return tw.taintOf(e.X)
	case *ast.StarExpr:
		return tw.taintOf(e.X)
	case *ast.UnaryExpr:
		return tw.taintOf(e.X)
	case *ast.BinaryExpr:
		return tw.taintOf(e.X) || tw.taintOf(e.Y)
	case *ast.SelectorExpr:
		return tw.taintOf(e.X)
	case *ast.IndexExpr:
		return tw.taintOf(e.X) || tw.taintOf(e.Index)
	case *ast.SliceExpr:
		return tw.taintOf(e.X)
	case *ast.TypeAssertExpr:
		return tw.taintOf(e.X)
	case *ast.KeyValueExpr:
		return tw.taintOf(e.Value)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if tw.taintOf(el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		fn := callee(tw.c.pass, e)
		if fn != nil && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" || fn.Name() == "Since" {
					return true
				}
			case "math/rand", "math/rand/v2":
				return true
			case "clonos/internal/causal", "clonos/internal/services":
				return false // determinant-logged results are deterministic on replay
			}
		}
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && tw.taintOf(sel.X) {
			return true // e.g. time.Now().UnixMilli()
		}
		for _, a := range e.Args {
			if tw.taintOf(a) {
				return true
			}
		}
		return false
	}
	return false
}

// callee resolves a call's target function (nil for conversions,
// builtins, and dynamic calls through variables).
func callee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	fun := call.Fun
	for {
		if p, ok := fun.(*ast.ParenExpr); ok {
			fun = p.X
			continue
		}
		break
	}
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

func calleeName(pass *analysis.Pass, call *ast.CallExpr) string {
	if fn := callee(pass, call); fn != nil {
		return fn.Name()
	}
	return "an encoder"
}

// writtenField resolves an lvalue to the struct field it stores into.
func writtenField(pass *analysis.Pass, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if v, ok := pass.TypesInfo.Uses[e.Sel].(*types.Var); ok && v.IsField() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}
