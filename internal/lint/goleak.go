package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLeak flags goroutines and timers with no termination signal:
//
//   - a `go func(){ for { ... } }()` whose loop has no return, break, or
//     goto — the goroutine can never exit, so every spawn is a permanent
//     leak;
//   - time.NewTicker/NewTimer results that never escape the function and
//     are never Stop()ed — the runtime timer (and for tickers, its channel
//     sends) outlives the function forever;
//   - time.After inside a loop — each iteration allocates a runtime timer
//     that is not reclaimed until it fires, so a tight retry/poll loop with
//     long timeouts pins unbounded timer memory (reuse one time.NewTimer
//     and Stop it);
//   - a send on an unbuffered locally-made channel from inside a spawned
//     goroutine, when every receive from that channel sits in a select
//     with other ways out — if the receiver takes the other case and
//     returns, the sender blocks forever.
type GoLeak struct{}

func (*GoLeak) Name() string { return "goleak" }
func (*GoLeak) Doc() string {
	return "goroutines, tickers and timers must have a termination signal"
}

func (c *GoLeak) Run(p *Pass) {
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
				return true // handled by the enclosing visit's rules
			default:
				return true
			}
			if body != nil {
				c.checkFunc(p, body)
			}
			return true
		})
	}
}

func (c *GoLeak) checkFunc(p *Pass, body *ast.BlockStmt) {
	c.checkForeverLoops(p, body)
	c.checkUnstoppedTimers(p, body)
	c.checkTimeAfterInLoop(p, body)
	c.checkAbandonedSends(p, body)
}

// checkForeverLoops flags `go` statements whose function literal body is an
// unconditional for-loop with no exit.
func (c *GoLeak) checkForeverLoops(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if _, nested := m.(*ast.FuncLit); nested {
				return false
			}
			loop, ok := m.(*ast.ForStmt)
			if !ok || loop.Cond != nil {
				return true
			}
			if !hasExit(loop.Body) {
				p.Reportf(loop.For, c.Name(),
					"goroutine runs `for {}` with no return, break, or goto: it can never terminate — plumb a ctx/done signal")
				return false
			}
			return true
		})
		return true
	})
}

// hasExit reports whether a loop body contains any statement that can leave
// the loop: return, break, goto, panic, or os.Exit/log.Fatal (counting any
// break, even one that targets an inner statement — under-approximating
// keeps this rule free of false positives on worker loops).
func hasExit(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			if n.Tok == token.BREAK || n.Tok == token.GOTO {
				found = true
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
				found = true
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Exit", "Fatal", "Fatalf", "Fatalln", "Goexit":
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// checkUnstoppedTimers flags `t := time.NewTicker/NewTimer(...)` where t
// neither escapes the function nor is ever Stop()ed.
func (c *GoLeak) checkUnstoppedTimers(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p, call)
		if fn == nil {
			return true
		}
		full := fn.FullName()
		if full != "time.NewTicker" && full != "time.NewTimer" {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			p.Reportf(as.Pos(), c.Name(), "%s result discarded; the runtime timer can never be stopped", full)
			return true
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id]
		}
		if obj == nil {
			return true
		}
		if !timerStoppedOrEscapes(p, body, obj, id) {
			p.Reportf(as.Pos(), c.Name(),
				"%s %q is never Stop()ed and never escapes; the runtime timer leaks — defer %s.Stop()", full, id.Name, id.Name)
		}
		return true
	})
}

// timerStoppedOrEscapes reports whether the timer object has a .Stop() call
// or escapes the function (returned, stored in a field/composite, passed as
// an argument) — either way it is not our leak to report.
func timerStoppedOrEscapes(p *Pass, body *ast.BlockStmt, obj types.Object, def *ast.Ident) bool {
	out := false
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if out {
			return true
		}
		id, ok := n.(*ast.Ident)
		if !ok || id == def || p.Info.Uses[id] != obj {
			return true
		}
		// t.Stop() / t.Reset(...) — or any selector use: reading t.C is not
		// enough, so look specifically at the selector name.
		if len(stack) >= 2 {
			if sel, ok := stack[len(stack)-2].(*ast.SelectorExpr); ok && sel.X == id {
				if sel.Sel.Name == "Stop" {
					out = true
				}
				return true // t.C / t.Reset reads don't release or escape
			}
		}
		// Any non-selector use besides the definition: assignment to
		// something else, argument, return, composite literal — escapes.
		out = true
		return true
	})
	return out
}

// checkTimeAfterInLoop flags time.After calls lexically inside a loop.
func (c *GoLeak) checkTimeAfterInLoop(p *Pass, body *ast.BlockStmt) {
	var inLoop func(n ast.Node, depth int)
	inLoop = func(n ast.Node, depth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case nil:
				return true
			case *ast.ForStmt:
				if m != n {
					inLoop(m.Body, depth+1)
					return false
				}
			case *ast.RangeStmt:
				if m != n {
					inLoop(m.Body, depth+1)
					return false
				}
			case *ast.CallExpr:
				if depth > 0 {
					if fn := calleeFunc(p, m); fn != nil && fn.FullName() == "time.After" {
						p.Reportf(m.Pos(), c.Name(),
							"time.After in a loop allocates a timer every iteration that lives until it fires; reuse a timer (time.NewTimer+Stop)")
					}
				}
			}
			return true
		})
	}
	inLoop(body, 0)
}

// checkAbandonedSends flags sends from spawned goroutines on unbuffered
// local channels whose only receives can be abandoned.
func (c *GoLeak) checkAbandonedSends(p *Pass, body *ast.BlockStmt) {
	// Unbuffered channels made in this function.
	unbuffered := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 { // make(chan T) — no capacity arg
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "make" {
				continue
			}
			if t := p.Info.Types[call].Type; t == nil {
				continue
			} else if _, isChan := t.Underlying().(*types.Chan); !isChan {
				continue
			}
			if i < len(as.Lhs) {
				if id, ok := as.Lhs[i].(*ast.Ident); ok {
					if obj := p.Info.Defs[id]; obj != nil {
						unbuffered[obj] = true
					}
				}
			}
		}
		return true
	})
	if len(unbuffered) == 0 {
		return
	}
	// A plain (non-select) receive or a range over the channel guarantees a
	// receiver; a receive only inside a multi-way select can abandon the
	// sender.
	guaranteed := make(map[types.Object]bool)
	var mark func(n ast.Node, inSelectWithOut bool)
	mark = func(n ast.Node, inSelectWithOut bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.SelectStmt:
				abandonable := len(m.Body.List) >= 2 || selectHasDefault(m)
				for _, cl := range m.Body.List {
					mark(cl, abandonable)
				}
				return false
			case *ast.UnaryExpr:
				if m.Op == token.ARROW && !inSelectWithOut {
					if id, ok := unparen(m.X).(*ast.Ident); ok {
						if obj := p.Info.Uses[id]; obj != nil {
							guaranteed[obj] = true
						}
					}
				}
			case *ast.RangeStmt:
				if id, ok := unparen(m.X).(*ast.Ident); ok {
					if obj := p.Info.Uses[id]; obj != nil {
						guaranteed[obj] = true
					}
				}
			}
			return true
		})
	}
	mark(body, false)
	// Now find sends inside go statements on abandonable channels.
	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			send, ok := m.(*ast.SendStmt)
			if !ok {
				return true
			}
			id, ok := unparen(send.Chan).(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.Info.Uses[id]
			if obj == nil || !unbuffered[obj] || guaranteed[obj] {
				return true
			}
			p.Reportf(send.Arrow, c.Name(),
				"goroutine sends on unbuffered %q but every receiver can abandon it (select with other cases); the sender leaks — buffer the channel", id.Name)
			return false
		})
		return true
	})
}
