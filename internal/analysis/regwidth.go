package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// RegWidthAnalyzer checks code against the declared bit widths of the
// simulated P4 registers. The data plane stores every cell as uint64,
// but the P4 program the model mirrors declares narrower widths —
// 48-bit Tofino timestamps, 1-bit flags, a 48-bit queue signature — and
// a mask, shift or conversion that disagrees with the declared width is
// exactly the class of bug that silently corrupts RTT and queue-delay
// figures on real hardware. The pass binds each register variable to
// the width in its NewRegister/NewRegisterWidth construction and flags:
//
//   - Write/Add/Max of a constant that does not fit the width;
//   - Write of a value shifted left by >= width (every bit lands
//     outside the declared cell);
//   - masking a Read with a constant selecting bits beyond the width;
//   - shifting a Read right by >= width (always zero);
//   - converting a Read to an integer type narrower than the width.
var RegWidthAnalyzer = &Analyzer{
	Name: "regwidth",
	Doc:  "masks/shifts/conversions that exceed or truncate a P4 register's declared bit width",
	Run:  eachPackage(runRegWidth),
}

// registerMethods whose value argument must respect the width.
var registerValueMethods = map[string]int{"Write": 1, "Add": 1, "Max": 1}

func runRegWidth(pass *Pass, pkg *Package) {
	widths := collectRegisterWidths(pass, pkg)
	if len(widths) == 0 {
		return
	}
	info := pkg.Info
	parents := pkg.Parents()
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := registerObject(info, sel.X)
			if obj == nil {
				return true
			}
			width, ok := widths[obj]
			if !ok || width >= 64 {
				return true
			}
			name := exprString(pass.Fset, sel.X)
			switch sel.Sel.Name {
			case "Write", "Add", "Max":
				if argIdx := registerValueMethods[sel.Sel.Name]; len(call.Args) > argIdx {
					checkValueFits(pass, info, call.Args[argIdx], name, width)
				}
			case "Read":
				checkReadUse(pass, info, parents, call, name, width)
			}
			return true
		})
	}
}

// collectRegisterWidths binds register variables/fields to the declared
// width in their construction call.
func collectRegisterWidths(pass *Pass, pkg *Package) map[types.Object]int {
	info := pkg.Info
	widths := map[types.Object]int{}
	bind := func(target ast.Expr, width int) {
		if id, ok := target.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				widths[obj] = width
				return
			}
		}
		if obj := registerObject(info, target); obj != nil {
			widths[obj] = width
		}
	}
	bindIdentObj := func(obj types.Object, width int) {
		if obj != nil {
			widths[obj] = width
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if w, ok := constructionWidth(info, n.Value); ok {
					if key, ok := n.Key.(*ast.Ident); ok {
						bindIdentObj(info.Uses[key], w)
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, rhs := range n.Rhs {
						if w, ok := constructionWidth(info, rhs); ok {
							bind(n.Lhs[i], w)
						}
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, v := range n.Values {
						if w, ok := constructionWidth(info, v); ok {
							bindIdentObj(info.Defs[n.Names[i]], w)
						}
					}
				}
			}
			return true
		})
	}
	return widths
}

// constructionWidth recognises NewRegister / NewRegisterWidth calls and
// returns the declared width.
func constructionWidth(info *types.Info, e ast.Expr) (int, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return 0, false
	}
	var fnIdent *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fnIdent = fun
	case *ast.SelectorExpr:
		fnIdent = fun.Sel
	default:
		return 0, false
	}
	fn, ok := info.Uses[fnIdent].(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/dataplane") {
		return 0, false
	}
	switch fn.Name() {
	case "NewRegister":
		return 64, true
	case "NewRegisterWidth":
		if len(call.Args) == 3 {
			if tv, ok := info.Types[call.Args[2]]; ok && tv.Value != nil {
				if w, ok := constant.Int64Val(constant.ToInt(tv.Value)); ok {
					return int(w), true
				}
			}
		}
	}
	return 0, false
}

// registerObject resolves the variable or struct field a register
// expression denotes, if its type is *dataplane.Register.
func registerObject(info *types.Info, e ast.Expr) types.Object {
	t := info.TypeOf(e)
	if t == nil {
		return nil
	}
	if !isRegisterType(t) {
		return nil
	}
	switch e := e.(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

func isRegisterType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Register" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/dataplane")
}

// checkValueFits flags definite width violations in a value stored to a
// register: constants too wide, or left-shifts that push every bit
// beyond the declared width.
func checkValueFits(pass *Pass, info *types.Info, arg ast.Expr, name string, width int) {
	if tv, ok := info.Types[arg]; ok && tv.Value != nil {
		if bits := constBitLen(tv.Value); bits > width {
			pass.Reportf(arg.Pos(), "value %s needs %d bits but register %s is declared %d bits wide",
				tv.Value, bits, name, width)
			return
		}
	}
	ast.Inspect(arg, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != token.SHL {
			return true
		}
		tv, ok := info.Types[be.Y]
		if !ok || tv.Value == nil {
			return true
		}
		if shift, ok := constant.Int64Val(constant.ToInt(tv.Value)); ok && int(shift) >= width {
			pass.Reportf(be.Pos(), "left shift by %d stores every bit outside register %s's declared %d-bit width",
				shift, name, width)
		}
		return true
	})
}

// checkReadUse inspects how a Read() result is consumed.
func checkReadUse(pass *Pass, info *types.Info, parents parentMap, call *ast.CallExpr, name string, width int) {
	parent, ok := parents[call]
	if !ok {
		return
	}
	switch p := parent.(type) {
	case *ast.BinaryExpr:
		other := p.X
		if other == call {
			other = p.Y
		}
		switch p.Op {
		case token.AND:
			tv, ok := info.Types[other]
			if !ok || tv.Value == nil {
				return
			}
			if bits := constBitLen(tv.Value); bits > width {
				pass.Reportf(p.Pos(), "mask %s selects bits beyond register %s's declared %d-bit width (always zero)",
					tv.Value, name, width)
			}
		case token.SHR:
			if p.X != call {
				return
			}
			tv, ok := info.Types[p.Y]
			if !ok || tv.Value == nil {
				return
			}
			if shift, ok := constant.Int64Val(constant.ToInt(tv.Value)); ok && int(shift) >= width {
				pass.Reportf(p.Pos(), "right shift by %d discards all %d declared bits of register %s (always zero)",
					shift, width, name)
			}
		}
	case *ast.CallExpr:
		// Conversion T(reg.Read(i)) to a narrower integer type.
		if len(p.Args) != 1 || p.Args[0] != call {
			return
		}
		tv, ok := info.Types[p.Fun]
		if !ok || !tv.IsType() {
			return
		}
		if bits, ok := intTypeBits(tv.Type); ok && bits < width {
			pass.Reportf(p.Pos(), "conversion to %s truncates register %s's declared %d-bit width to %d bits",
				tv.Type, name, width, bits)
		}
	}
}

// constBitLen returns the number of bits needed for a non-negative
// integer constant (0 for zero or non-integer).
func constBitLen(v constant.Value) int {
	iv := constant.ToInt(v)
	if iv.Kind() != constant.Int || constant.Sign(iv) <= 0 {
		return 0
	}
	bits := 0
	for constant.Sign(iv) > 0 {
		iv = constant.Shift(iv, token.SHR, 1)
		bits++
	}
	return bits
}

// intTypeBits returns the bit size of a basic integer type.
func intTypeBits(t types.Type) (int, bool) {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return 0, false
	}
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8, true
	case types.Int16, types.Uint16:
		return 16, true
	case types.Int32, types.Uint32:
		return 32, true
	case types.Int64, types.Uint64, types.Int, types.Uint, types.Uintptr:
		return 64, true
	}
	return 0, false
}
