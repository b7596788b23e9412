package exec

import (
	"math"
	"testing"

	"energydb/internal/table"
)

// fuseTab is the fused-kernel fixture: two int64 and two float64
// columns, four rows, with zeros placed for division-by-zero cases.
func fuseTab() *table.Table {
	s := table.NewSchema("t",
		table.Col("a", table.Int64),
		table.Col("b", table.Int64),
		table.Col("x", table.Float64),
		table.Col("y", table.Float64),
		table.Col("s", table.String),
	)
	tab := table.NewTable(s)
	for _, r := range []struct {
		a, b int64
		x, y float64
	}{
		{7, 2, 1.5, 0.5},
		{-3, 4, -2, 8},
		{10, 0, 0.25, 0},
		{0, 5, 3, -1},
	} {
		tab.AppendRow(table.IntVal(r.a), table.IntVal(r.b),
			table.FloatVal(r.x), table.FloatVal(r.y), table.StrVal("s"))
	}
	return tab
}

// TestFusedExprSemantics pins the fused kernel's arithmetic, with every
// expected value written out: each operator over (int,int), (int,float),
// (float,float) and constant operands; Div promoting to float64;
// division by zero yielding zero; wrapping int64 overflow; and nested
// trees whose registers are reused. Every case runs on a dense batch
// and on the same batch carrying a selection, where only the selected
// physical positions are checked.
func TestFusedExprSemantics(t *testing.T) {
	a, b := &ColRef{Col: 0}, &ColRef{Col: 1}
	x, y := &ColRef{Col: 2}, &ColRef{Col: 3}
	ic := func(v int64) *Const { return &Const{Val: table.IntVal(v)} }
	fc := func(v float64) *Const { return &Const{Val: table.FloatVal(v)} }
	ar := func(op ArithOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r} }

	cases := []struct {
		name   string
		expr   *Arith
		wantI  []int64   // int64 result, or
		wantF  []float64 // float64 result
		nI, nF int       // register bank sizes, when checked (-1 skips)
	}{
		{"int+int", ar(Add, a, b), []int64{9, 1, 10, 5}, nil, -1, -1},
		{"int-int", ar(Sub, a, b), []int64{5, -7, 10, -5}, nil, -1, -1},
		{"int*int", ar(Mul, a, b), []int64{14, -12, 0, 0}, nil, -1, -1},
		{"int/int", ar(Div, a, b), nil, []float64{3.5, -0.75, 0, 0}, 0, 1},

		{"int+float", ar(Add, a, x), nil, []float64{8.5, -5, 10.25, 3}, -1, -1},
		{"int-float", ar(Sub, a, x), nil, []float64{5.5, -1, 9.75, -3}, -1, -1},
		{"int*float", ar(Mul, a, x), nil, []float64{10.5, 6, 2.5, 0}, -1, -1},
		{"int/float", ar(Div, a, x), nil, []float64{7.0 / 1.5, 1.5, 40, 0}, -1, -1},
		{"float-int", ar(Sub, x, b), nil, []float64{-0.5, -6, 0.25, -2}, -1, -1},

		{"float+float", ar(Add, x, y), nil, []float64{2, 6, 0.25, 2}, -1, -1},
		{"float-float", ar(Sub, x, y), nil, []float64{1, -10, 0.25, 4}, -1, -1},
		{"float*float", ar(Mul, x, y), nil, []float64{0.75, -16, 0, -3}, -1, -1},
		{"float/float", ar(Div, x, y), nil, []float64{3, -0.25, 0, -3}, -1, -1},

		{"int*const", ar(Mul, a, ic(3)), []int64{21, -9, 30, 0}, nil, -1, -1},
		{"const-int", ar(Sub, ic(100), a), []int64{93, 103, 90, 100}, nil, -1, -1},
		{"int+floatconst", ar(Add, a, fc(0.5)), nil, []float64{7.5, -2.5, 10.5, 0.5}, -1, -1},
		{"intconst*float", ar(Mul, ic(2), x), nil, []float64{3, -4, 0.5, 6}, -1, -1},
		{"int/intconst", ar(Div, a, ic(2)), nil, []float64{3.5, -1.5, 5, 0}, -1, -1},
		{"int/0", ar(Div, a, ic(0)), nil, []float64{0, 0, 0, 0}, -1, -1},
		{"float/0.0", ar(Div, x, fc(0)), nil, []float64{0, 0, 0, 0}, -1, -1},

		{"int+maxint wraps", ar(Add, a, ic(math.MaxInt64)), []int64{
			-9223372036854775802, 9223372036854775804, -9223372036854775799, 9223372036854775807,
		}, nil, -1, -1},
		{"int-maxint wraps", ar(Sub, a, ic(math.MaxInt64)), []int64{
			-9223372036854775800, 9223372036854775806, -9223372036854775797, -9223372036854775807,
		}, nil, -1, -1},

		// ((a*2) + (b*3)) - (a+b): peak two live int registers.
		{"nested int", ar(Sub, ar(Add, ar(Mul, a, ic(2)), ar(Mul, b, ic(3))), ar(Add, a, b)),
			[]int64{11, 5, 10, 10}, nil, 2, 0},
		// (((a+1)*2) - b) + 3: a chain reuses one register throughout.
		{"int chain", ar(Add, ar(Sub, ar(Mul, ar(Add, a, ic(1)), ic(2)), b), ic(3)),
			[]int64{17, -5, 25, 0}, nil, 1, 0},
		// (x * (a-b)) / (y+1): an int register feeding float ones.
		{"nested mixed", ar(Div, ar(Mul, x, ar(Sub, a, b)), ar(Add, y, fc(1))),
			nil, []float64{5, 14.0 / 9, 2.5, 0}, 1, 2},
	}

	tab := fuseTab()
	ctx := benchCtx()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := FuseScalar(tc.expr, tab.Schema)
			if err != nil {
				t.Fatal(err)
			}
			if tc.nI >= 0 && (f.nI != tc.nI || f.nF != tc.nF) {
				t.Errorf("register banks int=%d float=%d, want %d/%d", f.nI, f.nF, tc.nI, tc.nF)
			}
			wantFloat := tc.wantF != nil
			if got := f.Type(tab.Schema).Physical() == table.PhysFloat; got != wantFloat {
				t.Fatalf("result float=%v, want %v", got, wantFloat)
			}
			for _, sel := range [][]int32{nil, {0, 2, 3}} {
				bt := tab.Slice(0, tab.Rows())
				rows := []int32{0, 1, 2, 3}
				if sel != nil {
					bt.SetSel(sel)
					rows = sel
				}
				out := f.EvalInto(ctx, bt)
				for _, i := range rows {
					if wantFloat {
						if got := out.F[i]; math.Float64bits(got) != math.Float64bits(tc.wantF[i]) {
							t.Errorf("sel=%v row %d: got %v, want %v", sel, i, got, tc.wantF[i])
						}
					} else if got := out.I[i]; got != tc.wantI[i] {
						t.Errorf("sel=%v row %d: got %d, want %d", sel, i, got, tc.wantI[i])
					}
				}
			}
		})
	}
}

// TestFuseRejectsNonNumeric: an Arith tree over a string operand has no
// evaluator, so compiling it — directly or through NewProject — fails
// instead of reaching a kernel.
func TestFuseRejectsNonNumeric(t *testing.T) {
	tab := fuseTab()
	str := &ColRef{Col: 4}
	for _, e := range []*Arith{
		{Op: Add, L: str, R: &Const{Val: table.IntVal(1)}},
		{Op: Mul, L: &ColRef{Col: 2}, R: &Arith{Op: Sub, L: &Const{Val: table.StrVal("z")}, R: &ColRef{Col: 0}}},
	} {
		if _, err := FuseScalar(e, tab.Schema); err == nil {
			t.Errorf("FuseScalar(%v) compiled a non-numeric tree", e)
		}
		if _, err := NewProject(&Values{Tab: tab}, []Expr{e}, []string{"e"}); err == nil {
			t.Errorf("NewProject(%v) accepted a non-numeric tree", e)
		}
	}
}
