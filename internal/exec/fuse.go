package exec

import (
	"fmt"

	"energydb/internal/table"
)

// This file is the scalar expression compiler. Arith trees have no
// evaluator of their own: FuseScalar compiles each into a single typed
// kernel — a flat postorder register program — that runs one pass per
// instruction over reused scratch buffers (Filter-style: acquired once,
// recycled across batches) and touches only selected rows. Semantics:
// Div and int/float mixes go float64 (integers converted at read),
// integer ops wrap, division by zero yields zero, and every element
// applies the tree's operations in postorder.

// fuseArgKind says where an instruction operand comes from.
type fuseArgKind uint8

const (
	fuseCol   fuseArgKind = iota // an input batch column
	fuseConst                    // an inline constant
	fuseReg                      // an earlier instruction's register
)

// fuseArg is one operand of a fused instruction.
type fuseArg struct {
	kind  fuseArgKind
	idx   int     // column or register index
	float bool    // operand's own physical class
	ci    int64   // constant payload (int class)
	cf    float64 // constant payload (float class)
}

// fuseInstr is one compiled Arith node: dst = l op r.
type fuseInstr struct {
	op    ArithOp
	float bool // result class: float64 arithmetic (else wrapping int64)
	dst   int  // register index in the result class's bank
	l, r  fuseArg
}

// FusedExpr is a Scalar whose whole Arith tree evaluates in one kernel.
type FusedExpr struct {
	orig  *Arith // the tree it was compiled from (String)
	prog  []fuseInstr
	typ   table.Type
	nI    int // int64 register bank size
	nF    int // float64 register bank size
	nodes int // Arith nodes fused: each charges ProjectCyclesPerRow per row

	regsI [][]int64
	regsF [][]float64
	out   *table.Vector
	iota  []int32
}

// FuseScalar compiles an arithmetic tree over column references and
// numeric constants into a fused kernel. Any other operand (a string
// column or constant, an unknown Expr) is an error: the binder rejects
// such trees, so none reaches a plan.
func FuseScalar(e *Arith, s *table.Schema) (*FusedExpr, error) {
	c := fuseCompiler{s: s}
	if _, ok := c.compile(e); !ok {
		return nil, fmt.Errorf("exec: cannot compile %v: operands must be numeric columns or constants", e)
	}
	f := &FusedExpr{
		orig: e, prog: c.prog, typ: e.Type(s),
		nI: c.maxI, nF: c.maxF, nodes: len(c.prog),
	}
	f.regsI = make([][]int64, f.nI)
	f.regsF = make([][]float64, f.nF)
	return f, nil
}

// fuseCompiler walks the tree postorder, allocating registers with a
// stack discipline per class (bank size = tree depth, not node count).
type fuseCompiler struct {
	s          *table.Schema
	prog       []fuseInstr
	liveI      int
	liveF      int
	maxI, maxF int
}

func (c *fuseCompiler) compile(e Expr) (fuseArg, bool) {
	switch v := e.(type) {
	case *ColRef:
		switch c.s.Cols[v.Col].Type.Physical() {
		case table.PhysInt:
			return fuseArg{kind: fuseCol, idx: v.Col}, true
		case table.PhysFloat:
			return fuseArg{kind: fuseCol, idx: v.Col, float: true}, true
		}
		return fuseArg{}, false
	case *Const:
		switch v.Val.Type.Physical() {
		case table.PhysInt:
			return fuseArg{kind: fuseConst, ci: v.Val.I}, true
		case table.PhysFloat:
			return fuseArg{kind: fuseConst, cf: v.Val.F, float: true}, true
		}
		return fuseArg{}, false
	case *Arith:
		l, ok := c.compile(v.L)
		if !ok {
			return fuseArg{}, false
		}
		r, ok := c.compile(v.R)
		if !ok {
			return fuseArg{}, false
		}
		// Child registers die here; the stack discipline frees them
		// before the destination is allocated, so a chain reuses one
		// register per class instead of one per node.
		c.free(l)
		c.free(r)
		float := v.Op == Div || l.float || r.float
		dst := c.alloc(float)
		c.prog = append(c.prog, fuseInstr{op: v.Op, float: float, dst: dst, l: l, r: r})
		return fuseArg{kind: fuseReg, idx: dst, float: float}, true
	}
	return fuseArg{}, false
}

func (c *fuseCompiler) free(a fuseArg) {
	if a.kind != fuseReg {
		return
	}
	if a.float {
		c.liveF--
	} else {
		c.liveI--
	}
}

func (c *fuseCompiler) alloc(float bool) int {
	if float {
		c.liveF++
		if c.liveF > c.maxF {
			c.maxF = c.liveF
		}
		return c.liveF - 1
	}
	c.liveI++
	if c.liveI > c.maxI {
		c.maxI = c.liveI
	}
	return c.liveI - 1
}

// Type implements Scalar.
func (e *FusedExpr) Type(*table.Schema) table.Type { return e.typ }

func (e *FusedExpr) String() string { return e.orig.String() }

// fOpd is a float-class operand resolved against one batch: exactly one
// of f/i is non-nil (column or register data, integers converted at
// read), else the constant c applies.
type fOpd struct {
	f []float64
	i []int64
	c float64
}

func (o *fOpd) at(idx int32) float64 {
	if o.f != nil {
		return o.f[idx]
	}
	if o.i != nil {
		return float64(o.i[idx])
	}
	return o.c
}

// iOpd is an int-class operand: data or constant.
type iOpd struct {
	i []int64
	c int64
}

func (o *iOpd) at(idx int32) int64 {
	if o.i != nil {
		return o.i[idx]
	}
	return o.c
}

func (e *FusedExpr) resolveF(a fuseArg, b *table.Batch) fOpd {
	switch a.kind {
	case fuseCol:
		v := b.Vecs[a.idx]
		if a.float {
			return fOpd{f: v.F}
		}
		return fOpd{i: v.I}
	case fuseReg:
		if a.float {
			return fOpd{f: e.regsF[a.idx]}
		}
		return fOpd{i: e.regsI[a.idx]}
	default:
		if a.float {
			return fOpd{c: a.cf}
		}
		return fOpd{c: float64(a.ci)}
	}
}

func (e *FusedExpr) resolveI(a fuseArg, b *table.Batch) iOpd {
	switch a.kind {
	case fuseCol:
		return iOpd{i: b.Vecs[a.idx].I}
	case fuseReg:
		return iOpd{i: e.regsI[a.idx]}
	default:
		return iOpd{c: a.ci}
	}
}

// EvalInto implements Scalar. The kernel iterates the batch's selection
// (or the identity when dense), writing results at physical positions so
// an incoming Batch.Sel composes onto the output unchanged; deselected
// positions hold stale scratch values that no selection-honouring
// consumer reads. The charge is one ProjectCyclesPerRow per fused node
// per selected row.
func (e *FusedExpr) EvalInto(ctx *Ctx, b *table.Batch) *table.Vector {
	ctx.ChargeRows(b.Rows(), float64(e.nodes)*ctx.Costs.ProjectCyclesPerRow)
	n := b.PhysRows()
	sel := b.Sel
	if sel == nil {
		sel = iotaSel(&e.iota, n)
	}
	for i := range e.regsI {
		if cap(e.regsI[i]) < n {
			e.regsI[i] = make([]int64, n)
		}
		e.regsI[i] = e.regsI[i][:n]
	}
	for i := range e.regsF {
		if cap(e.regsF[i]) < n {
			e.regsF[i] = make([]float64, n)
		}
		e.regsF[i] = e.regsF[i][:n]
	}
	for k := range e.prog {
		ins := &e.prog[k]
		if ins.float {
			l, r := e.resolveF(ins.l, b), e.resolveF(ins.r, b)
			fusedLoopF(ins.op, e.regsF[ins.dst], &l, &r, sel)
		} else {
			l, r := e.resolveI(ins.l, b), e.resolveI(ins.r, b)
			fusedLoopI(ins.op, e.regsI[ins.dst], &l, &r, sel)
		}
	}
	if e.out == nil {
		e.out = &table.Vector{Type: e.typ}
	}
	last := &e.prog[len(e.prog)-1]
	if last.float {
		e.out.F = e.regsF[last.dst]
	} else {
		e.out.I = e.regsI[last.dst]
	}
	return e.out
}

// fusedLoopF runs one float64 instruction over the selected rows, the
// operator hoisted out of the loop like the filter kernels.
func fusedLoopF(op ArithOp, dst []float64, l, r *fOpd, sel []int32) {
	switch op {
	case Add:
		for _, i := range sel {
			dst[i] = l.at(i) + r.at(i)
		}
	case Sub:
		for _, i := range sel {
			dst[i] = l.at(i) - r.at(i)
		}
	case Mul:
		for _, i := range sel {
			dst[i] = l.at(i) * r.at(i)
		}
	default:
		for _, i := range sel {
			if d := r.at(i); d == 0 {
				dst[i] = 0
			} else {
				dst[i] = l.at(i) / d
			}
		}
	}
}

// fusedLoopI runs one wrapping int64 instruction over the selected rows.
// Div never lands here: the compiler promotes it to float64, matching
// Arith.Type.
func fusedLoopI(op ArithOp, dst []int64, l, r *iOpd, sel []int32) {
	switch op {
	case Add:
		for _, i := range sel {
			dst[i] = l.at(i) + r.at(i)
		}
	case Sub:
		for _, i := range sel {
			dst[i] = l.at(i) - r.at(i)
		}
	default:
		for _, i := range sel {
			dst[i] = l.at(i) * r.at(i)
		}
	}
}
