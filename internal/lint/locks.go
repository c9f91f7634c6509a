package lint

import (
	"go/ast"
	"go/types"
)

// Locks enforces mutex hygiene, per function:
//
//   - a Lock with no matching Unlock anywhere in the function;
//   - a return reached while the lock is still held, when the function
//     does unlock on other paths (the early-return leak a later refactor
//     introduces into manually-paired lock code);
//   - re-locking the same mutex while it is held (self-deadlock);
//   - a blocking operation — channel send/receive, select without default,
//     WaitGroup/Cond Wait, time.Sleep, an HTTP round trip — executed while
//     the lock is held, which turns one slow peer into a stall for every caller.
//
// Locks copied by value are go vet's copylocks check, which runs beside
// this one in `make check`.
//
// The path analysis is a forward walk from each Lock statement through the
// remainder of its enclosing blocks. It is deliberately conservative:
// branch/goto while held and loop bodies that unlock conditionally are
// treated as released rather than guessed at.
type Locks struct{}

func (*Locks) Name() string { return "locks" }
func (*Locks) Doc() string {
	return "locks must be released on every path and never held across blocking operations"
}

// lockMethods maps the sync method FullNames that acquire to the method
// names that release them. Keying on the method object (not the selector
// text) resolves promoted methods from embedded mutexes too.
var lockMethods = map[string]map[string]bool{
	"(*sync.Mutex).Lock":    {"Unlock": true},
	"(*sync.RWMutex).Lock":  {"Unlock": true},
	"(*sync.RWMutex).RLock": {"RUnlock": true},
}

// blockingCalls are operations that can park the goroutine indefinitely
// (or, for Sleep and HTTP, for an unbounded configured duration).
var blockingCalls = map[string]string{
	"(*sync.WaitGroup).Wait":  "WaitGroup.Wait",
	"(*sync.Cond).Wait":       "Cond.Wait",
	"time.Sleep":              "time.Sleep",
	"(*net/http.Client).Do":   "HTTP round trip",
	"(*net/http.Client).Get":  "HTTP round trip",
	"(*net/http.Client).Post": "HTTP round trip",
	"net/http.Get":            "HTTP round trip",
	"net/http.Post":           "HTTP round trip",
}

func (c *Locks) Run(p *Pass) {
	for _, f := range p.Files {
		if p.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				c.checkFunc(p, body)
			}
			return true // literals nested inside are visited separately
		})
	}
}

// checkFunc analyzes every Lock site in one function body (nested literals
// excluded — they execute at a different time and are analyzed on their
// own visit).
func (c *Locks) checkFunc(p *Pass, body *ast.BlockStmt) {
	w := &lockWalker{p: p, c: c}
	w.findLocks(body, body.List)
}

type lockWalker struct {
	p *Pass
	c *Locks
}

// findLocks scans a statement list (recursing into nested blocks, but not
// nested function literals) for Lock calls, and runs the path analysis
// from each.
func (w *lockWalker) findLocks(body *ast.BlockStmt, stmts []ast.Stmt) {
	for i, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if key, releases, ok := w.lockCall(s.X); ok {
				w.analyzeFrom(body, stmts[i+1:], s, key, releases)
			}
		case *ast.BlockStmt:
			w.findLocks(body, s.List)
		case *ast.IfStmt:
			w.findLocks(body, s.Body.List)
			if b, ok := s.Else.(*ast.BlockStmt); ok {
				w.findLocks(body, b.List)
			} else if e, ok := s.Else.(*ast.IfStmt); ok {
				w.findLocks(body, []ast.Stmt{e})
			}
		case *ast.ForStmt:
			w.findLocks(body, s.Body.List)
		case *ast.RangeStmt:
			w.findLocks(body, s.Body.List)
		case *ast.SwitchStmt:
			for _, cl := range s.Body.List {
				w.findLocks(body, cl.(*ast.CaseClause).Body)
			}
		case *ast.TypeSwitchStmt:
			for _, cl := range s.Body.List {
				w.findLocks(body, cl.(*ast.CaseClause).Body)
			}
		case *ast.SelectStmt:
			for _, cl := range s.Body.List {
				w.findLocks(body, cl.(*ast.CommClause).Body)
			}
		case *ast.LabeledStmt:
			w.findLocks(body, []ast.Stmt{s.Stmt})
		}
	}
}

// lockCall reports whether e is a call acquiring a sync lock; key is the
// receiver expression text ("m.mu"), releases the method names that free it.
func (w *lockWalker) lockCall(e ast.Expr) (key string, releases map[string]bool, ok bool) {
	call, okCall := e.(*ast.CallExpr)
	if !okCall {
		return "", nil, false
	}
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", nil, false
	}
	fn, okFn := w.p.Info.Uses[sel.Sel].(*types.Func)
	if !okFn {
		return "", nil, false
	}
	rel, isLock := lockMethods[fn.FullName()]
	if !isLock {
		return "", nil, false
	}
	return types.ExprString(sel.X), rel, true
}

// unlockCall reports whether e releases key.
func (w *lockWalker) unlockCall(e ast.Expr, key string, releases map[string]bool) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !releases[sel.Sel.Name] {
		return false
	}
	return types.ExprString(sel.X) == key
}

// pathState is the result of walking a statement sequence while holding a
// lock.
type pathState int

const (
	stillHeld  pathState = iota // fell through, lock held
	released                    // fell through, lock released (or deferred)
	terminated                  // no fallthrough (return/branch on every path)
)

// analyzeFrom walks the statements after one Lock call. anyUnlock gates
// the per-return findings: a function with zero unlocks gets exactly one
// finding at the Lock itself.
func (w *lockWalker) analyzeFrom(body *ast.BlockStmt, rest []ast.Stmt, lockStmt *ast.ExprStmt, key string, releases map[string]bool) {
	anyUnlock := false
	ast.Inspect(body, func(n ast.Node) bool {
		if e, ok := n.(*ast.ExprStmt); ok && w.unlockCall(e.X, key, releases) {
			anyUnlock = true
		}
		if d, ok := n.(*ast.DeferStmt); ok && w.deferReleases(d, key, releases) {
			anyUnlock = true
		}
		return true
	})
	if !anyUnlock {
		w.p.Reportf(lockStmt.Pos(), w.c.Name(),
			"%s.Lock() with no matching unlock in this function", key)
		return
	}
	w.walk(rest, walkCtx{key: key, releases: releases, anyUnlock: anyUnlock})
}

// walkCtx is the per-path state of the forward walk. deferred is set once a
// defer guarantees release at return — leak findings stop, but blocking-op
// findings continue, because the lock stays held until the function
// actually returns.
type walkCtx struct {
	key       string
	releases  map[string]bool
	anyUnlock bool
	deferred  bool
}

// walk processes a statement sequence with the lock held, reporting
// violations, and returns how the sequence left the lock.
func (w *lockWalker) walk(stmts []ast.Stmt, ctx walkCtx) pathState {
	for _, s := range stmts {
		// A blocking operation anywhere in this statement while held is a
		// finding regardless of how the paths merge afterwards.
		switch s := s.(type) {
		case *ast.ExprStmt:
			if w.unlockCall(s.X, ctx.key, ctx.releases) {
				return released
			}
			if k, _, ok := w.lockCall(s.X); ok && k == ctx.key {
				w.p.Reportf(s.Pos(), w.c.Name(),
					"%s locked again while already held: self-deadlock", ctx.key)
				return terminated
			}
			w.checkBlocking(s, ctx.key)
		case *ast.DeferStmt:
			if w.deferReleases(s, ctx.key, ctx.releases) {
				// Release is now guaranteed at return, but the lock stays
				// held until then: keep scanning for blocking operations.
				ctx.deferred = true
			}
		case *ast.ReturnStmt:
			w.checkBlocking(s, ctx.key)
			if !ctx.deferred && ctx.anyUnlock {
				w.p.Reportf(s.Pos(), w.c.Name(),
					"return while %s is held; this path never unlocks (use defer %s.Unlock())", ctx.key, ctx.key)
			}
			return terminated
		case *ast.BranchStmt:
			// break/continue/goto while held: the target may unlock; too
			// imprecise to report, but the sequence ends here.
			return terminated
		case *ast.IfStmt:
			w.checkBlocking(s.Cond, ctx.key)
			thenSt := w.walk(s.Body.List, ctx)
			elseSt := stillHeld
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseSt = w.walk(e.List, ctx)
			case *ast.IfStmt:
				elseSt = w.walk([]ast.Stmt{e}, ctx)
			}
			st := mergeBranches(thenSt, elseSt)
			if st != stillHeld {
				return st
			}
		case *ast.BlockStmt:
			st := w.walk(s.List, ctx)
			if st != stillHeld {
				return st
			}
		case *ast.SelectStmt:
			if !selectHasDefault(s) {
				w.p.Reportf(s.Pos(), w.c.Name(),
					"select with no default while %s is held blocks all other holders", ctx.key)
			}
			st := w.walkClauses(selectBodies(s), ctx)
			if st != stillHeld {
				return st
			}
		case *ast.SwitchStmt, *ast.TypeSwitchStmt:
			st := w.walkClauses(caseBodies(s), ctx)
			if st != stillHeld {
				return st
			}
		case *ast.ForStmt, *ast.RangeStmt:
			// Loops are walked only for blocking ops and unlocks; if the
			// body can unlock, treat the whole loop as released rather than
			// reason about iteration counts.
			var bodyStmts []ast.Stmt
			if f, ok := s.(*ast.ForStmt); ok {
				bodyStmts = f.Body.List
			} else {
				bodyStmts = s.(*ast.RangeStmt).Body.List
			}
			w.scanBlocking(bodyStmts, ctx.key)
			if w.containsUnlock(bodyStmts, ctx.key, ctx.releases) {
				return released
			}
		case *ast.LabeledStmt:
			st := w.walk([]ast.Stmt{s.Stmt}, ctx)
			if st != stillHeld {
				return st
			}
		case *ast.GoStmt:
			// The spawned goroutine runs concurrently; nothing it does
			// releases our hold. Its body is checked on its own visit.
		case *ast.SendStmt:
			w.checkBlocking(s, ctx.key)
		default:
			w.checkBlocking(s, ctx.key)
		}
	}
	if ctx.deferred {
		return released
	}
	return stillHeld
}

// walkClauses merges clause bodies like parallel branches: released only if
// every falling-through clause released; a missing default keeps the
// fallthrough path held.
func (w *lockWalker) walkClauses(bodies [][]ast.Stmt, ctx walkCtx) pathState {
	allReleased := len(bodies) > 0
	allTerminated := len(bodies) > 0
	for _, b := range bodies {
		st := w.walk(b, ctx)
		if st != released {
			allReleased = false
		}
		if st != terminated {
			allTerminated = false
		}
	}
	if allTerminated {
		return terminated
	}
	if allReleased {
		return released
	}
	return stillHeld
}

func mergeBranches(a, b pathState) pathState {
	if a == terminated {
		return b
	}
	if b == terminated {
		return a
	}
	if a == released && b == released {
		return released
	}
	return stillHeld
}

// deferReleases reports whether a defer statement releases key, directly
// (defer mu.Unlock()) or via a deferred closure containing the unlock.
func (w *lockWalker) deferReleases(d *ast.DeferStmt, key string, releases map[string]bool) bool {
	if w.unlockCall(d.Call, key, releases) {
		return true
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if e, ok := n.(*ast.ExprStmt); ok && w.unlockCall(e.X, key, releases) {
				found = true
			}
			return !found
		})
		return found
	}
	return false
}

func (w *lockWalker) containsUnlock(stmts []ast.Stmt, key string, releases map[string]bool) bool {
	found := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if e, ok := n.(*ast.ExprStmt); ok && w.unlockCall(e.X, key, releases) {
				found = true
			}
			return !found
		})
	}
	return found
}

// scanBlocking reports blocking operations anywhere in stmts (loop bodies,
// where the path walker does not descend statement-by-statement).
func (w *lockWalker) scanBlocking(stmts []ast.Stmt, key string) {
	for _, s := range stmts {
		w.checkBlocking(s, key)
	}
}

// checkBlocking reports channel operations and known blocking calls inside
// one statement or expression, skipping nested function literals.
func (w *lockWalker) checkBlocking(n ast.Node, key string) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			// Reported by the path walker itself (needs default-awareness);
			// don't descend into comm clauses from here.
			return false
		case *ast.SendStmt:
			w.p.Reportf(m.Arrow, w.c.Name(),
				"channel send while %s is held; a slow receiver stalls every other holder", key)
		case *ast.UnaryExpr:
			if m.Op.String() == "<-" {
				w.p.Reportf(m.OpPos, w.c.Name(),
					"channel receive while %s is held; a slow sender stalls every other holder", key)
			}
		case *ast.CallExpr:
			if sel, ok := m.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := w.p.Info.Uses[sel.Sel].(*types.Func); ok {
					if what, bad := blockingCalls[fn.FullName()]; bad {
						w.p.Reportf(m.Pos(), w.c.Name(),
							"%s while %s is held; one slow call stalls every other holder", what, key)
					}
				}
			} else if id, ok := m.Fun.(*ast.Ident); ok {
				if fn, ok := w.p.Info.Uses[id].(*types.Func); ok {
					if what, bad := blockingCalls[fn.FullName()]; bad {
						w.p.Reportf(m.Pos(), w.c.Name(),
							"%s while %s is held; one slow call stalls every other holder", what, key)
					}
				}
			}
		}
		return true
	})
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func selectBodies(s *ast.SelectStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, cl := range s.Body.List {
		out = append(out, cl.(*ast.CommClause).Body)
	}
	return out
}

func caseBodies(s ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	var list []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		list = s.Body.List
	case *ast.TypeSwitchStmt:
		list = s.Body.List
	}
	for _, cl := range list {
		out = append(out, cl.(*ast.CaseClause).Body)
	}
	return out
}
