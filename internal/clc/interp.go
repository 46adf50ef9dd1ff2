package clc

import (
	"fmt"
	"math"

	"repro/internal/gpusim"
)

// Arg is one bound kernel argument.
type Arg struct {
	// Exactly one of the following is meaningful, per Kind.
	Kind  ArgKind
	Buf   *gpusim.Buffer // KindBuffer
	Int   int32          // KindInt
	Float float32        // KindFloat
	Local int            // KindLocal: float32 slots of group-local memory
}

// ArgKind tags Arg.
type ArgKind int

// Argument kinds.
const (
	KindBuffer ArgKind = iota
	KindInt
	KindFloat
	KindLocal
)

// BufArg binds a device buffer to a __global pointer parameter.
func BufArg(b *gpusim.Buffer) Arg { return Arg{Kind: KindBuffer, Buf: b} }

// IntArg binds an int scalar.
func IntArg(v int32) Arg { return Arg{Kind: KindInt, Int: v} }

// FloatArg binds a float scalar.
func FloatArg(v float32) Arg { return Arg{Kind: KindFloat, Float: v} }

// LocalArg binds n float32 slots of local memory to a __local float*
// parameter (like clSetKernelArg with a size and NULL pointer).
func LocalArg(n int) Arg { return Arg{Kind: KindLocal, Local: n} }

// Bind resolves a kernel by name, checks the arguments against its
// parameter list and returns an executable gpusim kernel plus the local
// memory the launch must allocate. The kernel interprets each work-item on
// its own goroutine through gpusim.PerItem, because a source kernel's
// barrier() may sit under any control flow.
func Bind(prog *Program, name string, args []Arg) (gpusim.KernelFunc, int, error) {
	return bind(prog, name, args, nil)
}

// BindChecked is Bind with the checked interpreter mode enabled: the
// returned kernel logs every __local access against a shadow store and traps
// on cross-work-item races and divergent barrier counts (see checked.go).
// The CheckedState is private to the returned kernel; each BindChecked call
// produces a single-launch kernel.
func BindChecked(prog *Program, name string, args []Arg) (gpusim.KernelFunc, int, error) {
	return bind(prog, name, args, NewCheckedState())
}

// CheckArgs validates an argument list against a kernel's declared
// signature without building an executable kernel — the eager check behind
// cl's SetArgs.
func CheckArgs(prog *Program, name string, args []Arg) error {
	_, _, _, err := argPlan(prog, name, args)
	return err
}

// argPlan resolves the kernel and validates each argument against the
// declared parameter, computing the __local allocation layout.
func argPlan(prog *Program, name string, args []Arg) (*Function, []int, int, error) {
	fn, ok := prog.Functions[name]
	if !ok {
		return nil, nil, 0, fmt.Errorf("clc: no function %q in program", name)
	}
	if !fn.IsKernel {
		return nil, nil, 0, fmt.Errorf("clc: %q is not a __kernel function", name)
	}
	if len(args) != len(fn.Params) {
		return nil, nil, 0, fmt.Errorf("clc: kernel %q takes %d arguments, got %d",
			name, len(fn.Params), len(args))
	}
	ldsFloats := 0
	ldsOffsets := make([]int, len(args))
	for i, prm := range fn.Params {
		a := args[i]
		switch {
		case prm.Type.Pointer && prm.Type.Space == KWGLOBAL:
			if a.Kind != KindBuffer {
				return nil, nil, 0, fmt.Errorf("clc: kernel %q arg %d (%s %s): need a device buffer",
					name, i, prm.Type, prm.Name)
			}
			if prm.Type.Base == KWFLOAT && !a.Buf.IsFloat() ||
				prm.Type.Base == KWINT && a.Buf.IsFloat() {
				return nil, nil, 0, fmt.Errorf("clc: kernel %q arg %d (%s %s): buffer element type mismatch",
					name, i, prm.Type, prm.Name)
			}
		case prm.Type.Pointer && prm.Type.Space == KWLOCAL:
			if prm.Type.Base != KWFLOAT {
				return nil, nil, 0, fmt.Errorf("clc: kernel %q arg %d: only __local float* is supported", name, i)
			}
			if a.Kind != KindLocal || a.Local <= 0 {
				return nil, nil, 0, fmt.Errorf("clc: kernel %q arg %d (%s %s): need LocalArg(n)",
					name, i, prm.Type, prm.Name)
			}
			ldsOffsets[i] = ldsFloats
			ldsFloats += a.Local
		case prm.Type.Base == KWINT && !prm.Type.Pointer:
			if a.Kind != KindInt {
				return nil, nil, 0, fmt.Errorf("clc: kernel %q arg %d (%s): need IntArg", name, i, prm.Name)
			}
		case prm.Type.Base == KWFLOAT && !prm.Type.Pointer:
			if a.Kind != KindFloat {
				return nil, nil, 0, fmt.Errorf("clc: kernel %q arg %d (%s): need FloatArg", name, i, prm.Name)
			}
		default:
			return nil, nil, 0, fmt.Errorf("clc: kernel %q arg %d: unsupported parameter type %s",
				name, i, prm.Type)
		}
	}
	return fn, ldsOffsets, ldsFloats, nil
}

func bind(prog *Program, name string, args []Arg, chk *CheckedState) (gpusim.KernelFunc, int, error) {
	fn, ldsOffsets, ldsFloats, err := argPlan(prog, name, args)
	if err != nil {
		return nil, 0, err
	}
	localArrays := map[*DeclStmt]int32{}

	// In-kernel __local array declarations claim group memory statically,
	// like OpenCL's compile-time local allocations.
	var scanLocals func(b *Block)
	scanLocals = func(b *Block) {
		for _, st := range b.Stmts {
			switch x := st.(type) {
			case *DeclStmt:
				if x.ArraySize > 0 {
					localArrays[x] = int32(ldsFloats)
					elems := x.ArraySize
					if x.Type.Vec4 {
						elems *= 4
					}
					ldsFloats += elems
				}
			case *Block:
				scanLocals(x)
			case *IfStmt:
				scanLocals(x.Then)
				if eb, ok := x.Else.(*Block); ok {
					scanLocals(eb)
				} else if ei, ok := x.Else.(*IfStmt); ok {
					scanLocals(&Block{Stmts: []Stmt{ei}})
				}
			case *ForStmt:
				scanLocals(x.Body)
			case *WhileStmt:
				scanLocals(x.Body)
			}
		}
	}
	scanLocals(fn.Body)

	kf := func(wi *gpusim.Item) {
		in := &interp{prog: prog, wi: wi, localArrays: localArrays}
		if chk != nil {
			in.chk = chk.item(wi)
		}
		frame := newFrame()
		for i, prm := range fn.Params {
			a := args[i]
			var v value
			switch a.Kind {
			case KindBuffer:
				v = value{typ: prm.Type, buf: a.Buf}
			case KindLocal:
				v = value{typ: prm.Type, ldsOff: int32(ldsOffsets[i]), ldsLen: int32(a.Local), isLDS: true}
			case KindInt:
				v = value{typ: Type{Base: KWINT}, i: a.Int}
			case KindFloat:
				v = value{typ: Type{Base: KWFLOAT}, f: a.Float}
			}
			frame.define(prm.Name, v)
		}
		in.execBlock(fn.Body, frame)
		if in.chk != nil {
			// Reached only on clean return: divergent barrier counts between
			// the group's work-items mean a barrier was not group-uniform.
			in.chk.done(name)
		}
	}
	return gpusim.PerItem(kf), ldsFloats, nil
}

// value is a runtime value: a scalar, a float4 vector, or a pointer.
type value struct {
	typ Type
	i   int32
	f   float32
	f4  [4]float32
	// Pointer payload.
	buf    *gpusim.Buffer // __global
	isLDS  bool           // __local
	ldsOff int32
	ldsLen int32
}

func (v value) isFloat() bool { return v.typ.Base == KWFLOAT && !v.typ.Pointer && !v.typ.Vec4 }
func (v value) isInt() bool   { return v.typ.Base == KWINT && !v.typ.Pointer }
func (v value) isVec4() bool  { return v.typ.Vec4 && !v.typ.Pointer }

func (v value) truth() bool {
	if v.isFloat() {
		return v.f != 0
	}
	return v.i != 0
}

func intVal(i int32) value     { return value{typ: Type{Base: KWINT}, i: i} }
func floatVal(f float32) value { return value{typ: Type{Base: KWFLOAT}, f: f} }
func vec4Val(f4 [4]float32) value {
	return value{typ: Type{Base: KWFLOAT, Vec4: true}, f4: f4}
}

// memberIndex maps .x/.y/.z/.w to a component index.
func memberIndex(name string) int {
	switch name {
	case "x":
		return 0
	case "y":
		return 1
	case "z":
		return 2
	case "w":
		return 3
	}
	return -1
}

// frame is a function activation with block scoping.
type frame struct {
	scopes []map[string]*value
}

func newFrame() *frame {
	return &frame{scopes: []map[string]*value{{}}}
}

func (f *frame) push() { f.scopes = append(f.scopes, map[string]*value{}) }
func (f *frame) pop()  { f.scopes = f.scopes[:len(f.scopes)-1] }

func (f *frame) define(name string, v value) {
	f.scopes[len(f.scopes)-1][name] = &v
}

func (f *frame) lookup(name string) *value {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if v, ok := f.scopes[i][name]; ok {
			return v
		}
	}
	return nil
}

// ctrl is the statement-level control signal.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// interp executes one work-item.
type interp struct {
	prog        *Program
	wi          *gpusim.Item
	depth       int
	localArrays map[*DeclStmt]int32
	// chk is non-nil in checked mode (BindChecked): every __local access is
	// logged against the launch's shadow store.
	chk *checkedItem
}

func (in *interp) failf(t Token, format string, args ...any) {
	panic(fmt.Sprintf("clc: %s: %s", t.Pos(), fmt.Sprintf(format, args...)))
}

func (in *interp) execBlock(b *Block, fr *frame) (ctrl, value) {
	fr.push()
	defer fr.pop()
	for _, s := range b.Stmts {
		c, v := in.execStmt(s, fr)
		if c != ctrlNone {
			return c, v
		}
	}
	return ctrlNone, value{}
}

func (in *interp) execStmt(s Stmt, fr *frame) (ctrl, value) {
	switch st := s.(type) {
	case *Block:
		return in.execBlock(st, fr)
	case *DeclStmt:
		if st.ArraySize > 0 {
			off, ok := in.localArrays[st]
			if !ok {
				in.failf(st.Tok, "internal: unplanned __local array %q", st.Name)
			}
			elems := int32(st.ArraySize)
			ldsLen := elems
			if st.Type.Vec4 {
				ldsLen *= 4
			}
			ptr := st.Type
			ptr.Pointer = true
			fr.define(st.Name, value{typ: ptr, isLDS: true, ldsOff: off, ldsLen: ldsLen})
			return ctrlNone, value{}
		}
		var v value
		if st.Init != nil {
			v = in.coerce(in.eval(st.Init, fr), st.Type, st.Tok)
		} else {
			v = value{typ: st.Type}
		}
		fr.define(st.Name, v)
		return ctrlNone, value{}
	case *ExprStmt:
		in.eval(st.X, fr)
		return ctrlNone, value{}
	case *IfStmt:
		if in.eval(st.Cond, fr).truth() {
			return in.execBlock(st.Then, fr)
		}
		if st.Else != nil {
			return in.execStmt(st.Else, fr)
		}
		return ctrlNone, value{}
	case *WhileStmt:
		for in.eval(st.Cond, fr).truth() {
			c, v := in.execBlock(st.Body, fr)
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return c, v
			}
		}
		return ctrlNone, value{}
	case *ForStmt:
		fr.push()
		defer fr.pop()
		if st.Init != nil {
			in.execStmt(st.Init, fr)
		}
		for st.Cond == nil || in.eval(st.Cond, fr).truth() {
			c, v := in.execBlock(st.Body, fr)
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return c, v
			}
			if st.Post != nil {
				in.execStmt(st.Post, fr)
			}
		}
		return ctrlNone, value{}
	case *ReturnStmt:
		if st.Value != nil {
			return ctrlReturn, in.eval(st.Value, fr)
		}
		return ctrlReturn, value{}
	case *BreakStmt:
		return ctrlBreak, value{}
	case *ContinueStmt:
		return ctrlContinue, value{}
	}
	panic(fmt.Sprintf("clc: unknown statement %T", s))
}

// load reads through a pointer value at element index idx, charging the
// device counters.
func (in *interp) load(p value, idx int32, tok Token) value {
	if p.isLDS {
		if p.typ.Vec4 {
			base := 4 * idx
			if base < 0 || base+3 >= p.ldsLen {
				in.failf(tok, "__local float4 index %d out of range", idx)
			}
			var f4 [4]float32
			for c := int32(0); c < 4; c++ {
				if in.chk != nil {
					in.chk.access(p.ldsOff+base+c, false, tok)
				}
				f4[c] = in.wi.LoadLDS(int(p.ldsOff + base + c))
			}
			return vec4Val(f4)
		}
		if idx < 0 || idx >= p.ldsLen {
			in.failf(tok, "__local index %d out of [0,%d)", idx, p.ldsLen)
		}
		if in.chk != nil {
			in.chk.access(p.ldsOff+idx, false, tok)
		}
		return floatVal(in.wi.LoadLDS(int(p.ldsOff + idx)))
	}
	if p.buf == nil {
		in.failf(tok, "indexing a non-pointer value")
	}
	if p.typ.Vec4 {
		var f4 [4]float32
		for c := 0; c < 4; c++ {
			f4[c] = in.wi.LoadGlobalF32(p.buf, 4*int(idx)+c)
		}
		return vec4Val(f4)
	}
	if p.typ.Base == KWFLOAT {
		return floatVal(in.wi.LoadGlobalF32(p.buf, int(idx)))
	}
	return intVal(in.wi.LoadGlobalI32(p.buf, int(idx)))
}

func (in *interp) store(p value, idx int32, v value, tok Token) {
	if p.isLDS {
		if p.typ.Vec4 {
			base := 4 * idx
			if base < 0 || base+3 >= p.ldsLen {
				in.failf(tok, "__local float4 index %d out of range", idx)
			}
			f4 := in.coerce(v, Type{Base: KWFLOAT, Vec4: true}, tok).f4
			for c := int32(0); c < 4; c++ {
				if in.chk != nil {
					in.chk.access(p.ldsOff+base+c, true, tok)
				}
				in.wi.StoreLDS(int(p.ldsOff+base+c), f4[c])
			}
			return
		}
		if idx < 0 || idx >= p.ldsLen {
			in.failf(tok, "__local index %d out of [0,%d)", idx, p.ldsLen)
		}
		if in.chk != nil {
			in.chk.access(p.ldsOff+idx, true, tok)
		}
		in.wi.StoreLDS(int(p.ldsOff+idx), in.coerce(v, Type{Base: KWFLOAT}, tok).f)
		return
	}
	if p.buf == nil {
		in.failf(tok, "assigning through a non-pointer value")
	}
	if p.typ.Vec4 {
		f4 := in.coerce(v, Type{Base: KWFLOAT, Vec4: true}, tok).f4
		for c := 0; c < 4; c++ {
			in.wi.StoreGlobalF32(p.buf, 4*int(idx)+c, f4[c])
		}
		return
	}
	if p.typ.Base == KWFLOAT {
		in.wi.StoreGlobalF32(p.buf, int(idx), in.coerce(v, Type{Base: KWFLOAT}, tok).f)
		return
	}
	in.wi.StoreGlobalI32(p.buf, int(idx), in.coerce(v, Type{Base: KWINT}, tok).i)
}

// coerce converts scalars between int and float (C's usual conversions).
func (in *interp) coerce(v value, to Type, tok Token) value {
	if to.Pointer {
		if v.typ.Pointer || v.buf != nil || v.isLDS {
			return v
		}
		in.failf(tok, "cannot convert %s to %s", v.typ, to)
	}
	if to.Vec4 {
		if v.isVec4() {
			return v
		}
		// Scalar broadcast, as OpenCL allows for implicit widening.
		if v.isFloat() {
			return vec4Val([4]float32{v.f, v.f, v.f, v.f})
		}
		if v.isInt() {
			f := float32(v.i)
			return vec4Val([4]float32{f, f, f, f})
		}
		in.failf(tok, "cannot convert %s to float4", v.typ)
	}
	switch to.Base {
	case KWFLOAT:
		if v.isFloat() {
			return v
		}
		if v.isInt() {
			return floatVal(float32(v.i))
		}
	case KWINT:
		if v.isInt() {
			return v
		}
		if v.isFloat() {
			return intVal(int32(v.f))
		}
	}
	in.failf(tok, "cannot convert %s to %s", v.typ, to)
	return value{}
}

func (in *interp) eval(e Expr, fr *frame) value {
	switch x := e.(type) {
	case *IntLit:
		return intVal(x.Value)
	case *FloatLit:
		return floatVal(x.Value)
	case *Ident:
		if v := fr.lookup(x.Name); v != nil {
			return *v
		}
		if c, ok := namedConstants[x.Name]; ok {
			return intVal(c)
		}
		in.failf(x.Tok, "undefined identifier %q", x.Name)
	case *Unary:
		v := in.eval(x.X, fr)
		switch x.Op {
		case MINUS:
			if v.isVec4() {
				in.wi.Flops(4)
				return vec4Val([4]float32{-v.f4[0], -v.f4[1], -v.f4[2], -v.f4[3]})
			}
			if v.isFloat() {
				in.wi.Flops(1)
				return floatVal(-v.f)
			}
			in.wi.Aux(1)
			return intVal(-v.i)
		case NOT:
			if v.truth() {
				return intVal(0)
			}
			return intVal(1)
		}
	case *Binary:
		return in.evalBinary(x, fr)
	case *Cond:
		if in.eval(x.C, fr).truth() {
			return in.eval(x.A, fr)
		}
		return in.eval(x.B, fr)
	case *Index:
		p := in.eval(x.X, fr)
		i := in.coerce(in.eval(x.I, fr), Type{Base: KWINT}, x.Tok)
		return in.load(p, i.i, x.Tok)
	case *Member:
		v := in.eval(x.X, fr)
		if !v.isVec4() {
			in.failf(x.Tok, "member .%s on non-float4 value of type %s", x.Name, v.typ)
		}
		return floatVal(v.f4[memberIndex(x.Name)])
	case *Assign:
		return in.evalAssign(x, fr)
	case *IncDec:
		one := intVal(1)
		op := PLUSEQ
		if x.Op == MINUSMINU {
			op = MINUSEQ
		}
		return in.evalAssign(&Assign{Op: op, LHS: x.X, RHS: wrapValue(one), Tok: x.Tok}, fr)
	case *Call:
		return in.evalCall(x, fr)
	case *valueExpr:
		return x.v
	}
	panic(fmt.Sprintf("clc: unknown expression %T", e))
}

// valueExpr injects an already-computed value into the AST (used by the
// ++/-- desugaring).
type valueExpr struct{ v value }

func (*valueExpr) exprNode() {}

func wrapValue(v value) Expr { return &valueExpr{v: v} }

func (in *interp) evalAssign(x *Assign, fr *frame) value {
	rhs := in.eval(x.RHS, fr)
	apply := func(cur value) value {
		if x.Op == ASSIGN {
			return in.coerce(rhs, cur.typ, x.Tok)
		}
		var binOp Kind
		switch x.Op {
		case PLUSEQ:
			binOp = PLUS
		case MINUSEQ:
			binOp = MINUS
		case STAREQ:
			binOp = STAR
		case SLASHEQ:
			binOp = SLASH
		}
		return in.coerce(in.arith(binOp, cur, rhs, x.Tok), cur.typ, x.Tok)
	}
	switch lhs := x.LHS.(type) {
	case *Ident:
		slot := fr.lookup(lhs.Name)
		if slot == nil {
			in.failf(lhs.Tok, "undefined identifier %q", lhs.Name)
		}
		nv := apply(*slot)
		*slot = nv
		return nv
	case *Member:
		ci := memberIndex(lhs.Name)
		switch base := lhs.X.(type) {
		case *Ident:
			slot := fr.lookup(base.Name)
			if slot == nil {
				in.failf(base.Tok, "undefined identifier %q", base.Name)
			}
			if !slot.isVec4() {
				in.failf(lhs.Tok, "member assignment on non-float4 %s", slot.typ)
			}
			cur := floatVal(slot.f4[ci])
			nv := apply(cur)
			slot.f4[ci] = in.coerce(nv, Type{Base: KWFLOAT}, lhs.Tok).f
			return nv
		case *Index:
			// Read-modify-write of one component through a float4 pointer.
			p := in.eval(base.X, fr)
			i := in.coerce(in.eval(base.I, fr), Type{Base: KWINT}, base.Tok)
			vecVal := in.load(p, i.i, base.Tok)
			if !vecVal.isVec4() {
				in.failf(lhs.Tok, "member assignment through non-float4 pointer %s", p.typ)
			}
			cur := floatVal(vecVal.f4[ci])
			nv := apply(cur)
			vecVal.f4[ci] = in.coerce(nv, Type{Base: KWFLOAT}, lhs.Tok).f
			in.store(p, i.i, vecVal, base.Tok)
			return nv
		}
		in.failf(lhs.Tok, "unsupported member assignment target")
	case *Index:
		p := in.eval(lhs.X, fr)
		i := in.coerce(in.eval(lhs.I, fr), Type{Base: KWINT}, lhs.Tok)
		elem := Type{Base: p.typ.Base, Vec4: p.typ.Vec4}
		var cur value
		if x.Op == ASSIGN {
			cur = value{typ: elem}
		} else {
			cur = in.load(p, i.i, lhs.Tok)
		}
		nv := apply(cur)
		in.store(p, i.i, nv, lhs.Tok)
		return nv
	}
	in.failf(x.Tok, "unassignable left-hand side")
	return value{}
}

func (in *interp) evalBinary(x *Binary, fr *frame) value {
	// Short-circuit logicals.
	switch x.Op {
	case ANDAND:
		if !in.eval(x.X, fr).truth() {
			return intVal(0)
		}
		if in.eval(x.Y, fr).truth() {
			return intVal(1)
		}
		return intVal(0)
	case OROR:
		if in.eval(x.X, fr).truth() {
			return intVal(1)
		}
		if in.eval(x.Y, fr).truth() {
			return intVal(1)
		}
		return intVal(0)
	}
	a := in.eval(x.X, fr)
	b := in.eval(x.Y, fr)
	return in.arith(x.Op, a, b, x.Tok)
}

// arith applies the usual arithmetic conversions: if either side is float,
// both are.
func (in *interp) arith(op Kind, a, b value, tok Token) value {
	if a.typ.Pointer || b.typ.Pointer {
		in.failf(tok, "pointer arithmetic is not supported; use indexing")
	}
	if a.isVec4() || b.isVec4() {
		av := in.coerce(a, Type{Base: KWFLOAT, Vec4: true}, tok).f4
		bv := in.coerce(b, Type{Base: KWFLOAT, Vec4: true}, tok).f4
		var out [4]float32
		switch op {
		case PLUS:
			for c := range out {
				out[c] = av[c] + bv[c]
			}
		case MINUS:
			for c := range out {
				out[c] = av[c] - bv[c]
			}
		case STAR:
			for c := range out {
				out[c] = av[c] * bv[c]
			}
		case SLASH:
			for c := range out {
				out[c] = av[c] / bv[c]
			}
		default:
			in.failf(tok, "operator %v is not defined on float4", op)
		}
		in.wi.Flops(4)
		return vec4Val(out)
	}
	if a.isFloat() || b.isFloat() {
		af := in.coerce(a, Type{Base: KWFLOAT}, tok).f
		bf := in.coerce(b, Type{Base: KWFLOAT}, tok).f
		switch op {
		case PLUS:
			in.wi.Flops(1)
			return floatVal(af + bf)
		case MINUS:
			in.wi.Flops(1)
			return floatVal(af - bf)
		case STAR:
			in.wi.Flops(1)
			return floatVal(af * bf)
		case SLASH:
			in.wi.Flops(1)
			return floatVal(af / bf)
		case PERCENT:
			in.failf(tok, "%% needs integer operands")
		case EQ:
			return boolVal(af == bf)
		case NE:
			return boolVal(af != bf)
		case LT:
			return boolVal(af < bf)
		case LE:
			return boolVal(af <= bf)
		case GT:
			return boolVal(af > bf)
		case GE:
			return boolVal(af >= bf)
		}
	}
	ai := a.i
	bi := b.i
	switch op {
	case PLUS:
		in.wi.Aux(1)
		return intVal(ai + bi)
	case MINUS:
		in.wi.Aux(1)
		return intVal(ai - bi)
	case STAR:
		in.wi.Aux(1)
		return intVal(ai * bi)
	case SLASH:
		if bi == 0 {
			in.failf(tok, "integer division by zero")
		}
		in.wi.Aux(1)
		return intVal(ai / bi)
	case PERCENT:
		if bi == 0 {
			in.failf(tok, "integer modulo by zero")
		}
		in.wi.Aux(1)
		return intVal(ai % bi)
	case EQ:
		return boolVal(ai == bi)
	case NE:
		return boolVal(ai != bi)
	case LT:
		return boolVal(ai < bi)
	case LE:
		return boolVal(ai <= bi)
	case GT:
		return boolVal(ai > bi)
	case GE:
		return boolVal(ai >= bi)
	}
	in.failf(tok, "unsupported operator %v", op)
	return value{}
}

func boolVal(b bool) value {
	if b {
		return intVal(1)
	}
	return intVal(0)
}

// namedConstants are the OpenCL barrier-fence flags (their values are
// irrelevant to the simulator).
var namedConstants = map[string]int32{
	"CLK_LOCAL_MEM_FENCE":  1,
	"CLK_GLOBAL_MEM_FENCE": 2,
}

// sqrtFlops is the operation count charged for a (reciprocal) square root,
// approximating the hardware's Newton-iteration sequence.
const sqrtFlops = 5

func (in *interp) evalCall(x *Call, fr *frame) value {
	// Casts and constructors desugared by the parser.
	switch x.Name {
	case "(cast)int":
		return in.coerce(in.eval(x.Args[0], fr), Type{Base: KWINT}, x.Tok)
	case "(cast)float":
		return in.coerce(in.eval(x.Args[0], fr), Type{Base: KWFLOAT}, x.Tok)
	case "(make)float4":
		if len(x.Args) == 1 {
			return in.coerce(in.eval(x.Args[0], fr), Type{Base: KWFLOAT, Vec4: true}, x.Tok)
		}
		var f4 [4]float32
		for c := 0; c < 4; c++ {
			f4[c] = in.coerce(in.eval(x.Args[c], fr), Type{Base: KWFLOAT}, x.Tok).f
		}
		return vec4Val(f4)
	}

	args := make([]value, len(x.Args))
	for i, a := range x.Args {
		args[i] = in.eval(a, fr)
	}
	need := func(n int) {
		if len(args) != n {
			in.failf(x.Tok, "%s expects %d arguments, got %d", x.Name, n, len(args))
		}
	}
	f1 := func(fn func(float64) float64, flops int) value {
		need(1)
		in.wi.Flops(flops)
		return floatVal(float32(fn(float64(in.coerce(args[0], Type{Base: KWFLOAT}, x.Tok).f))))
	}

	switch x.Name {
	case "get_global_id":
		need(1)
		return intVal(int32(in.wi.GlobalID()))
	case "get_local_id":
		need(1)
		return intVal(int32(in.wi.LocalID()))
	case "get_group_id":
		need(1)
		return intVal(int32(in.wi.GroupID()))
	case "get_local_size":
		need(1)
		return intVal(int32(in.wi.LocalSize()))
	case "get_global_size":
		need(1)
		return intVal(int32(in.wi.GlobalSize()))
	case "get_num_groups":
		need(1)
		return intVal(int32(in.wi.NumGroups()))
	case "barrier":
		in.wi.Barrier()
		if in.chk != nil {
			in.chk.barrier()
		}
		return value{}
	case "sqrt", "native_sqrt":
		return f1(math.Sqrt, sqrtFlops)
	case "rsqrt", "native_rsqrt":
		need(1)
		in.wi.Flops(sqrtFlops)
		v := float64(in.coerce(args[0], Type{Base: KWFLOAT}, x.Tok).f)
		return floatVal(float32(1 / math.Sqrt(v)))
	case "fabs":
		return f1(math.Abs, 1)
	case "floor":
		return f1(math.Floor, 1)
	case "exp", "native_exp":
		return f1(math.Exp, 8)
	case "log", "native_log":
		return f1(math.Log, 8)
	case "fma", "mad":
		need(3)
		in.wi.Flops(2)
		a := in.coerce(args[0], Type{Base: KWFLOAT}, x.Tok).f
		b := in.coerce(args[1], Type{Base: KWFLOAT}, x.Tok).f
		c := in.coerce(args[2], Type{Base: KWFLOAT}, x.Tok).f
		return floatVal(a*b + c)
	case "dot":
		need(2)
		a := in.coerce(args[0], Type{Base: KWFLOAT, Vec4: true}, x.Tok).f4
		b := in.coerce(args[1], Type{Base: KWFLOAT, Vec4: true}, x.Tok).f4
		in.wi.Flops(7)
		return floatVal(a[0]*b[0] + a[1]*b[1] + a[2]*b[2] + a[3]*b[3])
	case "fmin", "min":
		need(2)
		return in.minmax(args, x.Tok, true)
	case "fmax", "max":
		need(2)
		return in.minmax(args, x.Tok, false)
	}

	// Program-defined helper function.
	fn, ok := in.prog.Functions[x.Name]
	if !ok {
		in.failf(x.Tok, "unknown function %q", x.Name)
	}
	if fn.IsKernel {
		in.failf(x.Tok, "cannot call __kernel function %q", x.Name)
	}
	if len(args) != len(fn.Params) {
		in.failf(x.Tok, "%s expects %d arguments, got %d", x.Name, len(fn.Params), len(args))
	}
	in.depth++
	if in.depth > 256 {
		in.failf(x.Tok, "call depth exceeded (recursion?)")
	}
	defer func() { in.depth-- }()
	nf := newFrame()
	for i, prm := range fn.Params {
		nf.define(prm.Name, in.coerce(args[i], prm.Type, x.Tok))
	}
	c, v := in.execBlock(fn.Body, nf)
	if fn.RetType.Base != KWVOID && c != ctrlReturn {
		in.failf(x.Tok, "%s: missing return value", x.Name)
	}
	if fn.RetType.Base == KWVOID {
		return value{}
	}
	return in.coerce(v, fn.RetType, x.Tok)
}

func (in *interp) minmax(args []value, tok Token, isMin bool) value {
	a, b := args[0], args[1]
	if a.isFloat() || b.isFloat() {
		in.wi.Flops(1)
		af := in.coerce(a, Type{Base: KWFLOAT}, tok).f
		bf := in.coerce(b, Type{Base: KWFLOAT}, tok).f
		if isMin == (af < bf) {
			return floatVal(af)
		}
		return floatVal(bf)
	}
	in.wi.Aux(1)
	if isMin == (a.i < b.i) {
		return intVal(a.i)
	}
	return intVal(b.i)
}
