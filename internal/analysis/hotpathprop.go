package analysis

import (
	"fmt"
	"go/types"
	"strings"
)

// HotPathPropAnalyzer owns the p4:hotpath contract. A function whose
// doc comment carries `p4:hotpath` is on the per-packet pipeline
// (scheduler, packet arena, data-plane hashing, report codec), which
// promises 0 allocs/op AND bounded latency. A helper it calls breaks
// the promise as surely as the root itself, so the pass reads the
// walked events of the annotated body and of every function the
// conservative call graph reaches from it, and reports:
//
//   - sync.Mutex / sync.RWMutex operations — the path stays lock-free;
//   - time.Now — it desynchronises the simulation clock and costs a
//     vDSO call per packet;
//   - map iteration — unbounded work in nondeterministic order;
//   - channel send, receive, select, close and make(chan);
//   - allocations: append not assigned back to the slice it extends
//     (`x = append(x, ...)` and appends into a local trim
//     `buf := x[:0]` reuse capacity), map literals and make(map),
//     net/netip rendering (String, MarshalText, AppendTo, ...) and
//     fmt.Sprintf-family formatting.
//
// What it catches that nothing else does: `TestAllocFree*` measures
// allocations on the inputs it drives, so this pass adds locks,
// channels, the clock and map iteration, which no test measures, and
// allocations on branches no test drives (an escape path, a first
// line per flow); it also names the callee that broke the contract.
// With the tree's exemptions disabled it reports 12 findings (the
// `Pipes` batch mutex, the report codec's slow paths, `packet.Clone`).
//
// A breach in the annotated body is reported where it stands; one in a
// callee is reported at the root with the shortest call chain. Function
// literals count as part of the body that declares them. Anything
// inside a panic argument is exempt: that path aborts the simulation.
// Functions no root reaches are not inspected. A callee that
// legitimately breaks the contract (an amortised batch flush, a cold
// error path) is excluded by `p4:hotpath-exempt: <why>` in its doc
// comment, or one line by a justified `p4:lint-exempt` comment naming
// this pass; an exemption without a justification is itself reported.
// Calls through function values and from inside function literals are
// not traversed (see the Program doc).
var HotPathPropAnalyzer = &Analyzer{
	Name: "hotpathprop",
	Doc:  "p4:hotpath contract (no allocation, locks, time.Now, map iteration or channels) in annotated functions and everything they reach",
	Run:  runHotPathProp,
}

const (
	hotpathMark   = "p4:hotpath"
	hotpathExempt = "p4:hotpath-exempt:"
)

func runHotPathProp(pass *Pass) {
	prog := pass.Program()

	// Classify every declared function once: root, exempt, or plain.
	exempt := map[*types.Func]bool{}
	var roots []*FuncInfo
	for _, fi := range prog.Functions() {
		doc := ""
		if fi.Decl.Doc != nil {
			doc = fi.Decl.Doc.Text()
		}
		if idx := strings.Index(doc, hotpathExempt); idx >= 0 {
			exempt[fi.Obj] = true
			reason := doc[idx+len(hotpathExempt):]
			if nl := strings.IndexByte(reason, '\n'); nl >= 0 {
				reason = reason[:nl]
			}
			if strings.TrimSpace(reason) == "" {
				pass.Reportf(fi.Decl.Pos(), "p4:hotpath-exempt on %s has no justification: explain why the hot-path contract does not apply", fi.Name())
			}
			continue
		}
		if strings.Contains(doc, hotpathMark) {
			roots = append(roots, fi)
		}
	}

	// Each function's breaches, collected once over the declaration and
	// its function literals: every walked event but returns, plain
	// calls, I/O and math/rand, unless it sits in a panic argument (that
	// path aborts the run) or on an exempted line (so it neither
	// surfaces directly nor propagates to a root).
	cache := map[*types.Func][]event{}
	violationsOf := func(fi *FuncInfo) []event {
		if v, ok := cache[fi.Obj]; ok {
			return v
		}
		var v []event
		for _, b := range prog.bodies(fi) {
			for _, e := range b.events {
				switch e.kind {
				case evReturn, evCall, evIO, evRand:
					continue
				}
				if !e.cold && !pass.Exempt(e.pos) {
					v = append(v, e)
				}
			}
		}
		cache[fi.Obj] = v
		return v
	}

	for _, root := range roots {
		for _, v := range violationsOf(root) {
			pass.Reportf(v.pos, "%s in p4:hotpath function %s: the per-packet path must stay allocation-free, lock-free, clock-free and channel-free", v.what, root.Name())
		}
		// Each violating callee is reported once per root, at the root.
		prog.Reach(root, func(callee *FuncInfo, e Edge, chain *callChain) bool {
			if exempt[callee.Obj] {
				return false // justified escape hatch: not checked, not traversed
			}
			for _, v := range violationsOf(callee) {
				via := ""
				if e.Dynamic {
					via = fmt.Sprintf(" (dispatched via interface %s)", e.Iface)
				}
				pass.Reportf(root.Decl.Pos(), "p4:hotpath function %s reaches %s in %s via %s%s (at %s)",
					root.Name(), v.what, callee.Name(), chain, via, prog.Fset.Position(v.pos))
			}
			return true
		})
	}
}
