package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// TimeUnitsAnalyzer guards the nanosecond bookkeeping the measurement
// pipeline lives on. Both time.Duration and simtime.Time count integer
// nanoseconds; the paper's RTT/queue-delay math silently produces
// garbage if a bare number (interpreted as nanoseconds) stands in for a
// scaled duration, or if a counter named in milliseconds/seconds is
// converted without rescaling. It reports:
//
//   - bare nonzero integer constants used where time.Duration or
//     simtime.Time is expected (use unit constants: 5*time.Millisecond,
//     2*simtime.Second);
//   - multiplying two duration-typed values (the result is ns², not a
//     duration);
//   - converting an identifier whose name says milliseconds, micro-
//     seconds or seconds directly to a nanosecond time type without
//     multiplying by a unit constant.
//
// What it catches that nothing else does: an untyped constant converts
// to a time type without complaint from the compiler or `go vet`, and a
// mis-scaled value still yields plausible numbers, which the witness
// pins rather than questions.
var TimeUnitsAnalyzer = &Analyzer{
	Name: "timeunits",
	Doc:  "bare numeric literals or mis-scaled counters used as time.Duration/simtime.Time",
	Run:  eachPackage(runTimeUnits),
}

// unitConstNames are the scaling constants that make a bare number a
// legitimate duration expression.
var unitConstNames = map[string]bool{
	"Nanosecond": true, "Microsecond": true, "Millisecond": true,
	"Second": true, "Minute": true, "Hour": true,
}

func runTimeUnits(pass *Pass, pkg *Package) {
	info := pkg.Info
	parents := pkg.Parents()
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			expr, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			tv, ok := info.Types[expr]
			if !ok {
				return true
			}

			// Rule 1: implicit untyped constant -> duration type.
			// Negative constants are sentinels, not durations, and an
			// explicit conversion (simtime.Time(5)) is a deliberate
			// choice; both are exempt.
			if tv.Value != nil && isTimeQuantity(tv.Type) && constant.Sign(tv.Value) > 0 {
				if !mentionsTimeConst(info, expr, false) && !inScalarContext(parents, expr) &&
					!inConversion(info, parents, expr) && !declaresUnitConst(info, parents, expr) {
					pass.Reportf(expr.Pos(), "bare constant %s used as %s: write it with a unit constant (e.g. %s)",
						tv.Value, tv.Type, suggestUnit(tv.Type))
					return false
				}
			}

			// Rules 2 and 3 inspect specific expression shapes.
			switch e := expr.(type) {
			case *ast.BinaryExpr:
				// Rule 2: d1 * d2 where both carry nanosecond semantics
				// is ns², not a duration. The stdlib idiom
				// Duration(n) * unit — a conversion-from-integer times a
				// unit held in a constant or variable — is the accepted
				// way to scale and is exempt.
				if e.Op == token.MUL {
					lt, rt := info.Types[e.X], info.Types[e.Y]
					if isTimeQuantity(lt.Type) && isTimeQuantity(rt.Type) &&
						lt.Value == nil && rt.Value == nil &&
						!isIntConversion(info, e.X) && !isIntConversion(info, e.Y) {
						pass.Reportf(e.Pos(), "multiplying two time quantities (%s * %s) yields ns², not a duration; one operand must be a dimensionless scalar",
							lt.Type, rt.Type)
					}
				}
			case *ast.CallExpr:
				checkUnitConversion(pass, info, parents, e)
			}
			return true
		})
	}
}

// inConversion reports whether expr is the operand of an explicit
// conversion to a time quantity type: T(5) states intent.
func inConversion(info *types.Info, parents parentMap, expr ast.Expr) bool {
	p, ok := parents[expr]
	if !ok {
		return false
	}
	call, ok := p.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 || call.Args[0] != expr {
		return false
	}
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// declaresUnitConst reports whether expr is the declaration value of a
// unit constant itself (Nanosecond Time = 1 in the simtime package).
func declaresUnitConst(info *types.Info, parents parentMap, expr ast.Expr) bool {
	p, ok := parents[expr]
	if !ok {
		return false
	}
	spec, ok := p.(*ast.ValueSpec)
	if !ok {
		return false
	}
	for _, name := range spec.Names {
		if unitConstNames[name.Name] {
			return true
		}
	}
	return false
}

// isIntConversion reports whether expr converts an integer expression
// to a time quantity type (the Duration(n) * unit idiom's scalar).
func isIntConversion(info *types.Info, expr ast.Expr) bool {
	call, ok := expr.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType() && isTimeQuantity(tv.Type)
}

// inScalarContext reports whether the constant is used as a
// dimensionless scalar — a multiplier, divisor or shift — where a bare
// number is correct (d / 2, 3 * time.Second's 3, d >> 1).
func inScalarContext(parents parentMap, expr ast.Expr) bool {
	parent, ok := parents[expr]
	if !ok {
		return false
	}
	be, ok := parent.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch be.Op {
	case token.MUL, token.QUO, token.REM, token.SHL, token.SHR:
		return true
	}
	return false
}

// checkUnitConversion flags time.Duration(x)/simtime.Time(x) where x is
// named in a coarser unit (ms/us/sec) and the result is not rescaled.
func checkUnitConversion(pass *Pass, info *types.Info, parents parentMap, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || !isTimeQuantity(tv.Type) {
		return
	}
	var name string
	switch arg := call.Args[0].(type) {
	case *ast.Ident:
		name = arg.Name
	case *ast.SelectorExpr:
		name = arg.Sel.Name
	case *ast.StarExpr:
		if id, ok := arg.X.(*ast.Ident); ok {
			name = id.Name
		}
	default:
		return
	}
	unit := coarseUnit(name)
	if unit == "" {
		return
	}
	// A conversion immediately scaled by a unit constant is the correct
	// idiom: time.Duration(ms) * time.Millisecond.
	if p, ok := parents[call]; ok {
		if be, ok := p.(*ast.BinaryExpr); ok && be.Op == token.MUL {
			other := be.X
			if other == call {
				other = be.Y
			}
			if mentionsTimeConst(info, other, true) {
				return
			}
		}
	}
	pass.Reportf(call.Pos(), "%s(%s) treats a value named in %s as nanoseconds; multiply by the matching unit constant",
		tv.Type, name, unit)
}

// coarseUnit recognises identifier names that declare a non-nanosecond
// unit.
func coarseUnit(name string) string {
	for _, tok := range splitNameTokens(name) {
		switch tok {
		case "ms", "msec", "millis", "millisecond", "milliseconds":
			return "milliseconds"
		case "us", "usec", "micros", "microsecond", "microseconds":
			return "microseconds"
		case "sec", "secs", "second", "seconds":
			return "seconds"
		// "min"/"mins" deliberately excluded: in measurement code they
		// almost always mean minimum, not minutes.
		case "minute", "minutes":
			return "minutes"
		}
	}
	return ""
}

// splitNameTokens splits snake_case and camelCase identifiers into
// lower-cased tokens.
func splitNameTokens(name string) []string {
	var tokens []string
	for _, part := range strings.Split(name, "_") {
		start := 0
		for i := 1; i <= len(part); i++ {
			if i == len(part) || (part[i] >= 'A' && part[i] <= 'Z') {
				if i > start {
					tokens = append(tokens, strings.ToLower(part[start:i]))
				}
				start = i
			}
		}
	}
	return tokens
}

// mentionsTimeConst reports whether expr names a constant of a time
// type; unitOnly narrows it to the unit constants (time.Millisecond,
// simtime.Second, ...). A constant declared with a time type has its
// declaration site as the place to check it.
func mentionsTimeConst(info *types.Info, expr ast.Expr, unitOnly bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if c, ok := info.Uses[id].(*types.Const); ok && isTimeQuantity(c.Type()) && (!unitOnly || unitConstNames[c.Name()]) {
				found = true
			}
		}
		return !found
	})
	return found
}

func suggestUnit(t types.Type) string {
	if isSimTime(t) {
		return "10 * simtime.Millisecond"
	}
	return "10 * time.Millisecond"
}
