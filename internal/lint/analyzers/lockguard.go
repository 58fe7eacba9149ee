package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// LockGuard enforces `// guarded by <mu>` annotations: a struct field so
// annotated may only be read while its mutex is held (RLock suffices)
// and only written while it is fully locked, on every path the call
// graph can see. A method may declare `// guarded by <mu>` in its doc
// comment, meaning callers must hold the receiver's mutex across the
// call; the analyzer then checks call sites instead of the body's
// accesses (the body is checked assuming the lock held on entry).
//
// The lock-state tracking is a deliberately conservative linear
// abstract interpretation: Lock/RLock add to the held set, Unlock/
// RUnlock remove, `defer mu.Unlock()` keeps the lock held to the end of
// the function, and control-flow branches are analyzed with a copy of
// the held set whose effects do not survive the branch. Function
// literals are analyzed as their own functions with an empty held set
// (a literal may run on another goroutine or after the caller
// returned). Test files are never loaded, so tests may poke
// single-threaded state directly.
//
// Annotation hygiene (malformed grammar, unknown or non-mutex sibling,
// doc annotation on a non-method) is reported by the per-package pass;
// the fact store carries the annotations to the whole-program pass that
// does the checking.
var LockGuard = &lint.Analyzer{
	Name:            "lockguard",
	Doc:             "fields annotated `// guarded by <mu>` must only be accessed with that mutex held, on every call-graph path",
	Run:             runLockGuard,
	RunProgram:      runLockGuardProgram,
	Interprocedural: true,
}

// guardedByFact marks a struct field as guarded by the named sibling
// mutex field.
type guardedByFact struct {
	Mutex string
}

func (*guardedByFact) AFact() {}

// requiresLockFact marks a method as requiring the receiver's named
// mutex held by the caller.
type requiresLockFact struct {
	Mutex string
}

func (*requiresLockFact) AFact() {}

// runLockGuard collects and validates annotations, exporting facts.
func runLockGuard(pass *lint.Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				collectFieldGuards(pass, n)
			case *ast.FuncDecl:
				collectFuncGuard(pass, n)
				return false // field guards inside function bodies still found? no nested named structs expected
			}
			return true
		})
	}
}

func collectFieldGuards(pass *lint.Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		mutex, at, ok := guardAnnotation(pass, field.Doc, field.Comment)
		if !ok {
			continue
		}
		if mutex == "" {
			continue // malformed; already reported by guardAnnotation
		}
		if strings.Contains(mutex, ".") {
			pass.Reportf(at, "guarded by %q: field guards must name a sibling mutex field (single identifier)", mutex)
			continue
		}
		if len(field.Names) == 0 {
			pass.Reportf(at, "guarded by %s: annotation on an embedded field is not supported", mutex)
			continue
		}
		if !structHasMutex(pass, st, mutex) {
			pass.Reportf(at, "guarded by %s: no sibling field %s of type sync.Mutex or sync.RWMutex in this struct", mutex, mutex)
			continue
		}
		for _, name := range field.Names {
			if obj, ok := pass.Info.Defs[name].(*types.Var); ok {
				pass.Facts.ExportObjectFact(obj, &guardedByFact{Mutex: mutex})
			}
		}
	}
}

func collectFuncGuard(pass *lint.Pass, fd *ast.FuncDecl) {
	mutex, at, ok := guardAnnotation(pass, fd.Doc, nil)
	if !ok || mutex == "" {
		return
	}
	if strings.Contains(mutex, ".") {
		pass.Reportf(at, "guarded by %q: method guards must name a mutex field on the receiver (single identifier)", mutex)
		return
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		pass.Reportf(at, "guarded by %s: only methods can require a caller-held lock", mutex)
		return
	}
	recvType := pass.Info.TypeOf(fd.Recv.List[0].Type)
	if recvType == nil || !typeHasMutexField(recvType, mutex) {
		pass.Reportf(at, "guarded by %s: receiver type has no mutex field %s", mutex, mutex)
		return
	}
	if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
		pass.Facts.ExportObjectFact(obj, &requiresLockFact{Mutex: mutex})
	}
}

// guardAnnotation scans the comment groups for one guarded-by
// annotation. ok reports whether any guarded-by comment (well- or
// malformed) was present; mutex is empty when malformed (reported
// here).
func guardAnnotation(pass *lint.Pass, groups ...*ast.CommentGroup) (mutex string, at token.Pos, ok bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			name, isGuard, err := ParseGuardedBy(c.Text)
			if !isGuard {
				continue
			}
			if err != nil {
				pass.Reportf(c.Pos(), "malformed guarded-by annotation: %v", err)
				return "", c.Pos(), true
			}
			return name, c.Pos(), true
		}
	}
	return "", token.NoPos, false
}

// structHasMutex reports whether the literal struct type has a field
// named mutex whose type is a sync mutex.
func structHasMutex(pass *lint.Pass, st *ast.StructType, mutex string) bool {
	for _, field := range st.Fields.List {
		t := pass.Info.TypeOf(field.Type)
		for _, name := range field.Names {
			if name.Name == mutex && isMutexType(t) {
				return true
			}
		}
		// Embedded sync.Mutex / sync.RWMutex answer to their type name.
		if len(field.Names) == 0 && isMutexType(t) && mutexBaseName(t) == mutex {
			return true
		}
	}
	return false
}

// typeHasMutexField reports whether t (after pointer indirection) is a
// struct with a mutex field of the given name.
func typeHasMutexField(t types.Type, mutex string) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == mutex && isMutexType(f.Type()) {
			return true
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	s := types.TypeString(t, func(p *types.Package) string { return p.Path() })
	return s == "sync.Mutex" || s == "sync.RWMutex"
}

func mutexBaseName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// Held-set bits.
const (
	heldRead  uint8 = 1 // RLock or Lock
	heldWrite uint8 = 2 // Lock only
)

// runLockGuardProgram walks every function body with the conservative
// lock-state abstraction and checks guarded accesses and lock-requiring
// calls.
func runLockGuardProgram(pp *lint.ProgramPass) {
	for _, fn := range pp.Program.Graph.Funcs {
		if fn.Body() == nil {
			continue
		}
		c := &lgChecker{pp: pp, pkg: fn.Pkg, fn: fn}
		held := make(map[string]uint8)
		// A method annotated `// guarded by mu` is checked assuming the
		// receiver's mutex held on entry.
		if fn.Obj != nil && fn.Decl != nil && fn.Decl.Recv != nil && len(fn.Decl.Recv.List) > 0 {
			var req requiresLockFact
			if pp.Facts.ImportObjectFact(fn.Obj, &req) {
				if names := fn.Decl.Recv.List[0].Names; len(names) > 0 {
					if recv, ok := fn.Pkg.Info.Defs[names[0]].(*types.Var); ok {
						held[pp.Facts.ObjectKey(recv)+"."+req.Mutex] = heldRead | heldWrite
					}
				}
			}
		}
		c.stmts(fn.Body().List, held)
	}
}

// lgChecker walks one function body tracking the held-mutex set.
type lgChecker struct {
	pp  *lint.ProgramPass
	pkg *lint.Package
	fn  *lint.Func
}

// stmts processes a statement sequence, threading the held set through
// and returning its final state.
func (c *lgChecker) stmts(list []ast.Stmt, held map[string]uint8) map[string]uint8 {
	for _, s := range list {
		held = c.stmt(s, held)
	}
	return held
}

func copyHeld(held map[string]uint8) map[string]uint8 {
	out := make(map[string]uint8, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// stmt processes one statement, returning the held set after it.
// Branch bodies run on copies: their lock-state effects conservatively
// do not survive the branch.
func (c *lgChecker) stmt(s ast.Stmt, held map[string]uint8) map[string]uint8 {
	switch s := s.(type) {
	case nil:
		return held
	case *ast.ExprStmt:
		if key, op, ok := c.lockOp(s.X); ok {
			return applyLockOp(held, key, op)
		}
		c.scan(s.X, held, false)
		return held
	case *ast.DeferStmt:
		if key, op, ok := c.lockOp(s.Call); ok {
			if op == "Unlock" || op == "RUnlock" {
				// defer mu.Unlock(): the lock stays held to function end.
				return held
			}
			// defer mu.Lock() is almost certainly a bug but not ours to
			// diagnose; treat as a no-op for the held set.
			_ = key
			return held
		}
		for _, arg := range s.Call.Args {
			c.scan(arg, held, false)
		}
		c.checkCallContract(s.Call, held)
		return held
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			c.scan(arg, held, false)
		}
		c.checkCallContract(s.Call, held)
		return held
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			c.scan(rhs, held, false)
		}
		for _, lhs := range s.Lhs {
			// x.f += v both reads and writes; plain = only writes. Write
			// implies the stricter requirement either way.
			c.scan(lhs, held, true)
		}
		return held
	case *ast.IncDecStmt:
		c.scan(s.X, held, true)
		return held
	case *ast.SendStmt:
		c.scan(s.Chan, held, false)
		c.scan(s.Value, held, false)
		return held
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.scan(r, held, false)
		}
		return held
	case *ast.IfStmt:
		held = c.stmt(s.Init, held)
		c.scan(s.Cond, held, false)
		c.stmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			c.stmt(s.Else, copyHeld(held))
		}
		return held
	case *ast.ForStmt:
		held = c.stmt(s.Init, held)
		if s.Cond != nil {
			c.scan(s.Cond, held, false)
		}
		body := copyHeld(held)
		body = c.stmts(s.Body.List, body)
		c.stmt(s.Post, body)
		return held
	case *ast.RangeStmt:
		c.scan(s.X, held, false)
		c.stmts(s.Body.List, copyHeld(held))
		return held
	case *ast.SwitchStmt:
		held = c.stmt(s.Init, held)
		if s.Tag != nil {
			c.scan(s.Tag, held, false)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					c.scan(e, held, false)
				}
				c.stmts(cc.Body, copyHeld(held))
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		held = c.stmt(s.Init, held)
		c.stmt(s.Assign, copyHeld(held))
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				c.stmts(cc.Body, copyHeld(held))
			}
		}
		return held
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				inner := copyHeld(held)
				inner = c.stmt(cc.Comm, inner)
				c.stmts(cc.Body, inner)
			}
		}
		return held
	case *ast.BlockStmt:
		return c.stmts(s.List, held)
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.scan(v, held, false)
					}
				}
			}
		}
		return held
	default:
		// Branch/empty/etc: nothing to track.
		return held
	}
}

func applyLockOp(held map[string]uint8, key, op string) map[string]uint8 {
	if key == "" {
		return held
	}
	switch op {
	case "Lock":
		held[key] = heldRead | heldWrite
	case "RLock":
		held[key] |= heldRead
	case "Unlock", "RUnlock":
		delete(held, key)
	}
	return held
}

// lockOp recognizes expr as a call to (sync.Mutex).Lock and friends,
// returning the held-set key of the mutex expression.
func (c *lgChecker) lockOp(expr ast.Expr) (key, op string, ok bool) {
	call, isCall := ast.Unparen(expr).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	fn := lint.CalleeFunc(c.pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	return c.exprKey(sel.X), fn.Name(), true
}

// exprKey renders a stable identity for the expression holding a mutex
// or guarded field: the root object's declaration position followed by
// the selected field path. Empty when the expression is too complex to
// identify (map index, function result, ...).
func (c *lgChecker) exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := c.pkg.Info.Uses[e]; obj != nil {
			return c.pp.Facts.ObjectKey(obj)
		}
		if obj := c.pkg.Info.Defs[e]; obj != nil {
			return c.pp.Facts.ObjectKey(obj)
		}
		return ""
	case *ast.SelectorExpr:
		base := c.exprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.StarExpr:
		return c.exprKey(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.exprKey(e.X)
		}
		return ""
	default:
		return ""
	}
}

// scan checks every guarded-field access and lock-requiring call in the
// expression, without descending into function literals (they are
// separate call-graph nodes, analyzed with an empty held set).
func (c *lgChecker) scan(e ast.Expr, held map[string]uint8, write bool) {
	if e == nil {
		return
	}
	// writes marks the selectors that constitute mutation of the guarded
	// field: the lvalue path of an assignment (including through map/
	// slice indexing and pointer derefs) and the map argument of the
	// delete builtin. Everything else is a read.
	writes := make(map[ast.Node]bool)
	if write {
		if t := writeTarget(e); t != nil {
			writes[t] = true
		}
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			c.checkCallContract(n, held)
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
				if _, isBuiltin := c.pkg.Info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "delete" {
					if t := writeTarget(n.Args[0]); t != nil {
						writes[t] = true
					}
				}
			}
			return true
		case *ast.SelectorExpr:
			c.checkAccess(n, held, writes[n])
			return true
		}
		return true
	})
}

// writeTarget unwraps an lvalue to the selector being mutated:
// c.m[k] = v and *p.f = v write fields m and f respectively.
func writeTarget(e ast.Expr) *ast.SelectorExpr {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			return t
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// checkAccess reports sel when it selects a guarded field without the
// required lock held.
func (c *lgChecker) checkAccess(sel *ast.SelectorExpr, held map[string]uint8, write bool) {
	s, ok := c.pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	fv, ok := s.Obj().(*types.Var)
	if !ok {
		return
	}
	var guard guardedByFact
	if !c.pp.Facts.ImportObjectFact(fv, &guard) {
		return
	}
	base := c.exprKey(sel.X)
	if base == "" {
		c.pp.Reportf(sel.Sel.Pos(), "field %s is guarded by %s but the holder expression is too complex to prove the lock held; bind it to a variable first", fv.Name(), guard.Mutex)
		return
	}
	key := base + "." + guard.Mutex
	state := held[key]
	if write && state&heldWrite == 0 {
		if state&heldRead != 0 {
			c.pp.Reportf(sel.Sel.Pos(), "field %s (guarded by %s) written while only read-locked; Lock %s for writes", fv.Name(), guard.Mutex, guard.Mutex)
			return
		}
		c.pp.Reportf(sel.Sel.Pos(), "field %s (guarded by %s) written without holding %s on this path", fv.Name(), guard.Mutex, guard.Mutex)
		return
	}
	if !write && state&heldRead == 0 {
		c.pp.Reportf(sel.Sel.Pos(), "field %s (guarded by %s) read without holding %s on this path", fv.Name(), guard.Mutex, guard.Mutex)
	}
}

// checkCallContract reports calls to methods annotated `// guarded by
// <mu>` made without the receiver's mutex fully held.
func (c *lgChecker) checkCallContract(call *ast.CallExpr, held map[string]uint8) {
	fn := lint.CalleeFunc(c.pkg.Info, call)
	if fn == nil {
		return
	}
	var req requiresLockFact
	if !c.pp.Facts.ImportObjectFact(fn, &req) {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	base := c.exprKey(sel.X)
	if base == "" {
		c.pp.Reportf(call.Pos(), "call to %s requires %s held but the receiver expression is too complex to prove it; bind it to a variable first", fn.Name(), req.Mutex)
		return
	}
	if held[base+"."+req.Mutex]&heldWrite == 0 {
		c.pp.Reportf(call.Pos(), "call to %s requires the receiver's %s held (declared `// guarded by %s`), not held on this path", fn.Name(), req.Mutex, req.Mutex)
	}
}
