// Package keyfmt freezes the byte encoding of floats in scenario keys
// (Key methods and the key-segment formatters of table rows) and CSV
// emitters.
//
// Scenario.Key() is the identity under which runs are grouped, diffed
// against golden files, and compared across -workers counts; the CSV
// schema is pinned by checked-in goldens. Both must produce identical
// bytes forever. fmt's %v and %g render floats at "smallest precision
// that round-trips" — a representation chosen by the runtime, not the
// code. Any future change to that algorithm (it already changed once,
// in Go 1.12) would silently rewrite every key and golden file. Inside
// key and CSV functions, floats must be formatted with an explicit
// precision (%.2f, %.3e, %.4g) or an explicit strconv.FormatFloat call,
// which states the chosen encoding in the source where review can see
// it.
package keyfmt

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer flags default %v/%g float formatting inside Key() methods,
// CSV-emitting functions (any function whose name contains "csv"), and
// function literals stored in a composite-literal field whose name
// contains "key" (the key-segment formatters of a table row). Suppress a
// deliberate case with "//lint:allow keyfmt".
var Analyzer = &analysis.Analyzer{
	Name: "keyfmt",
	Doc: "forbid default %v/%g float formatting in Scenario.Key and CSV " +
		"emitters: key and schema bytes are frozen by golden files, so " +
		"floats there need an explicit precision or strconv.FormatFloat",
	Run: run,
}

// formatted maps fmt formatting functions to the index of their format
// string argument.
var formatted = map[string]int{
	"Sprintf": 0, "Printf": 0, "Errorf": 0,
	"Fprintf": 1, "Appendf": 1,
}

// unformatted fmt functions render every operand as %v; any float
// operand is a violation in scope. The int is the first operand index
// (skipping io.Writer / append-destination arguments).
var unformatted = map[string]int{
	"Sprint": 0, "Sprintln": 0, "Print": 0, "Println": 0,
	"Fprint": 1, "Fprintln": 1, "Append": 1, "Appendln": 1,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil && inScope(n) {
					checkBody(pass, n.Body)
					return false
				}
			case *ast.KeyValueExpr:
				if lit, ok := n.Value.(*ast.FuncLit); ok && isSegmentField(n.Key) {
					checkBody(pass, lit.Body)
					return false
				}
			}
			return true
		})
	}
	return nil, nil
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
			return true
		}
		if idx, ok := formatted[fn.Name()]; ok {
			checkFormatted(pass, call, idx)
		} else if idx, ok := unformatted[fn.Name()]; ok {
			checkUnformatted(pass, fn.Name(), call, idx)
		}
		return true
	})
}

// inScope reports whether fd's output bytes are frozen: Key methods and
// anything CSV-shaped by name.
func inScope(fd *ast.FuncDecl) bool {
	return (fd.Name.Name == "Key" && fd.Recv != nil) ||
		strings.Contains(strings.ToLower(fd.Name.Name), "csv")
}

// isSegmentField reports whether a composite-literal key names a field
// that holds a key-segment formatter: the shape of a table row
// ("key: func(v T) string { ... }") whose output Key concatenates.
func isSegmentField(k ast.Expr) bool {
	id, ok := k.(*ast.Ident)
	return ok && strings.Contains(strings.ToLower(id.Name), "key")
}

func isFloat(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func checkFormatted(pass *analysis.Pass, call *ast.CallExpr, fmtIdx int) {
	if len(call.Args) <= fmtIdx {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[fmtIdx]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	format := constant.StringVal(tv.Value)
	operands := call.Args[fmtIdx+1:]
	for _, v := range defaultVerbOperands(format) {
		if v.operand < len(operands) && isFloat(pass, operands[v.operand]) {
			pass.Reportf(call.Pos(),
				"%%%c formats a float with runtime-chosen precision in frozen key/CSV bytes; use an explicit-precision verb or strconv.FormatFloat",
				v.verb)
		}
	}
}

func checkUnformatted(pass *analysis.Pass, name string, call *ast.CallExpr, firstOperand int) {
	for _, arg := range call.Args[min(firstOperand, len(call.Args)):] {
		if isFloat(pass, arg) {
			pass.Reportf(call.Pos(),
				"fmt.%s formats a float as %%v (runtime-chosen precision) in frozen key/CSV bytes; use an explicit-precision verb or strconv.FormatFloat",
				name)
		}
	}
}

// verbUse is one %v/%g/%G verb without explicit precision and the
// operand index it consumes.
type verbUse struct {
	verb    byte
	operand int
}

// defaultVerbOperands scans a fmt format string and returns the operand
// indexes consumed by precision-less %v, %g, and %G verbs, accounting
// for flags, *-widths, *-precisions, and explicit [n] argument indexes.
func defaultVerbOperands(format string) []verbUse {
	var out []verbUse
	arg := 0
	i := 0
	for i < len(format) {
		if format[i] != '%' {
			i++
			continue
		}
		i++
		if i < len(format) && format[i] == '%' {
			i++
			continue
		}
		for i < len(format) && strings.IndexByte("+-# 0'", format[i]) >= 0 {
			i++
		}
		// Explicit argument index: %[n]v.
		if i < len(format) && format[i] == '[' {
			j, n := i+1, 0
			for j < len(format) && format[j] >= '0' && format[j] <= '9' {
				n = n*10 + int(format[j]-'0')
				j++
			}
			if j < len(format) && format[j] == ']' && n > 0 {
				arg = n - 1
				i = j + 1
			}
		}
		if i < len(format) && format[i] == '*' {
			arg++
			i++
		} else {
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				i++
			}
		}
		hasPrec := false
		if i < len(format) && format[i] == '.' {
			hasPrec = true
			i++
			if i < len(format) && format[i] == '*' {
				arg++
				i++
			} else {
				for i < len(format) && format[i] >= '0' && format[i] <= '9' {
					i++
				}
			}
		}
		if i >= len(format) {
			break
		}
		verb := format[i]
		i++
		if (verb == 'v' || verb == 'g' || verb == 'G') && !hasPrec {
			out = append(out, verbUse{verb: verb, operand: arg})
		}
		arg++
	}
	return out
}
