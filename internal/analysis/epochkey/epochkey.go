// Package epochkey defines an analyzer guarding the epoch lineage of
// update snapshots: the engine and the WAL records carry an epoch field
// that numbers the snapshot they belong to, and recovery resumes the
// lineage from the records. A value constructed without its epoch
// would silently claim epoch 0 and break that numbering.
//
// The analyzer flags keyed, non-empty composite literals of any struct
// type that declares a direct field named epoch (or Epoch) but whose
// literal omits it. Empty literals (T{}, the zero value) and positional
// literals (which cannot omit a field) are exempt.
package epochkey

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/typeutil"
)

// Analyzer flags epoch-carrying struct literals that omit the epoch.
var Analyzer = &analysis.Analyzer{
	Name: "epochkey",
	Doc: "check that epoch-carrying struct literals set their epoch field\n\n" +
		"Engines and WAL records are numbered by epoch; a keyed literal that\n" +
		"fills other fields but omits the epoch silently pins the value to\n" +
		"epoch 0.",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 {
				return true
			}
			tv, ok := pass.TypesInfo.Types[lit]
			if !ok {
				return true
			}
			st, ok := types.Unalias(tv.Type).Underlying().(*types.Struct)
			if !ok {
				return true
			}
			field := epochField(st)
			if field == "" {
				return true
			}
			// Positional literals necessarily cover every field.
			if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
				return true
			}
			for _, elt := range lit.Elts {
				kv := elt.(*ast.KeyValueExpr)
				if id, ok := kv.Key.(*ast.Ident); ok && id.Name == field {
					return true
				}
			}
			pass.Reportf(lit.Pos(),
				"%s literal omits the %s field: the value will claim epoch 0; set %s explicitly",
				typeName(tv.Type), field, field)
			return true
		})
	}
	return nil, nil
}

// epochField returns the name of st's direct epoch field, or "".
func epochField(st *types.Struct) string {
	for i := 0; i < st.NumFields(); i++ {
		switch name := st.Field(i).Name(); name {
		case "epoch", "Epoch":
			return name
		}
	}
	return ""
}

func typeName(t types.Type) string {
	if n := typeutil.Named(t); n != nil {
		return n.Obj().Name()
	}
	return t.String()
}
