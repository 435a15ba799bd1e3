// Package firrtl implements a frontend for the FIRRTL hardware
// intermediate language dialect consumed by this simulator generator:
// an indentation-sensitive lexer, a recursive-descent parser, the AST,
// and a printer that round-trips designs.
//
// The dialect covers the lowered-Chisel subset ESSENT consumes: circuits,
// modules, instances, ground types (UInt/SInt/Clock/AsyncReset), wires,
// registers (with synchronous reset), nodes, memories with read/write
// ports, last-connect semantics with when/else blocks, the full primop
// set, printf/assert/stop, and `is invalid`.
package firrtl

import (
	"fmt"
	"math/big"
	"strings"
)

// Position is a source location.
type Position struct {
	Line, Col int
}

func (p Position) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// TypeKind enumerates ground types.
type TypeKind int

// Ground type kinds.
const (
	UnknownType TypeKind = iota
	UIntType
	SIntType
	ClockType
	AsyncResetType
)

// Type is a ground type with an optional width (-1 = to be inferred).
type Type struct {
	Kind  TypeKind
	Width int
}

// Signed reports whether the type is SInt.
func (t Type) Signed() bool { return t.Kind == SIntType }

func (t Type) String() string {
	switch t.Kind {
	case UIntType:
		if t.Width < 0 {
			return "UInt"
		}
		return fmt.Sprintf("UInt<%d>", t.Width)
	case SIntType:
		if t.Width < 0 {
			return "SInt"
		}
		return fmt.Sprintf("SInt<%d>", t.Width)
	case ClockType:
		return "Clock"
	case AsyncResetType:
		return "AsyncReset"
	default:
		return "?"
	}
}

// Direction of a module port.
type Direction int

// Port directions.
const (
	Input Direction = iota
	Output
)

func (d Direction) String() string {
	if d == Input {
		return "input"
	}
	return "output"
}

// Circuit is the root of a design: a set of modules, one of which (the one
// sharing the circuit's name) is the top.
type Circuit struct {
	Name    string
	Modules []*Module
}

// Module returns the module with the given name, or nil.
func (c *Circuit) Module(name string) *Module {
	for _, m := range c.Modules {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Top returns the top module (same name as the circuit), or nil.
func (c *Circuit) Top() *Module { return c.Module(c.Name) }

// Module is a hardware module: ports plus a statement body.
type Module struct {
	Name  string
	Ports []Port
	Body  []Stmt
	Pos   Position
}

// Port is a module boundary signal.
type Port struct {
	Name string
	Dir  Direction
	Type Type
	Pos  Position
}

// Stmt is a FIRRTL statement.
type Stmt interface {
	stmt()
	Position() Position
}

type stmtBase struct{ Pos Position }

func (s stmtBase) stmt()              {}
func (s stmtBase) Position() Position { return s.Pos }

// DefWire declares a wire.
type DefWire struct {
	stmtBase
	Name string
	Type Type
}

// DefReg declares a register. Reset and Init are nil for reset-less
// registers.
type DefReg struct {
	stmtBase
	Name  string
	Type  Type
	Clock Expr
	Reset Expr
	Init  Expr
}

// DefNode names an expression.
type DefNode struct {
	stmtBase
	Name  string
	Value Expr
}

// DefInstance instantiates a module.
type DefInstance struct {
	stmtBase
	Name   string
	Module string
}

// DefMemory declares a memory with named read/write ports.
// Combinational reads (latency 0) and 1-cycle writes only, matching the
// behavioral memories the evaluation designs use.
type DefMemory struct {
	stmtBase
	Name         string
	DataType     Type
	Depth        int
	ReadLatency  int
	WriteLatency int
	Readers      []string
	Writers      []string
}

// Connect is `loc <= value`.
type Connect struct {
	stmtBase
	Loc   Expr
	Value Expr
}

// Invalid is `loc is invalid` (reads as zero in this dialect).
type Invalid struct {
	stmtBase
	Loc Expr
}

// When is a conditional block with last-connect semantics.
type When struct {
	stmtBase
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// Printf emits formatted output when enabled on a clock edge.
type Printf struct {
	stmtBase
	Clock  Expr
	En     Expr
	Format string
	Args   []Expr
}

// Assert checks a predicate when enabled.
type Assert struct {
	stmtBase
	Clock Expr
	Pred  Expr
	En    Expr
	Msg   string
}

// Stop halts simulation when enabled.
type Stop struct {
	stmtBase
	Clock Expr
	En    Expr
	Code  int
}

// Skip is a no-op.
type Skip struct{ stmtBase }

// Expr is a FIRRTL expression.
type Expr interface {
	expr()
	Position() Position
}

type exprBase struct{ Pos Position }

func (e exprBase) expr()              {}
func (e exprBase) Position() Position { return e.Pos }

// Ref references a named signal.
type Ref struct {
	exprBase
	Name string
}

// SubField accesses a field (instance ports, memory port fields).
type SubField struct {
	exprBase
	Of    Expr
	Field string
}

// Lit is an integer literal with explicit type.
type Lit struct {
	exprBase
	Type  Type
	Value *big.Int
}

// Mux is a 2-way multiplexer.
type Mux struct {
	exprBase
	Cond, T, F Expr
}

// ValidIf is `validif(cond, v)`; reads as v (the dialect picks v when
// invalid, the legal refinement).
type ValidIf struct {
	exprBase
	Cond, V Expr
}

// Prim is a primitive operation application.
type Prim struct {
	exprBase
	Op     PrimOp
	Args   []Expr
	Params []int
}

// PrimOp enumerates the primitive operations.
type PrimOp int

// Primitive operations of the dialect.
const (
	OpInvalid PrimOp = iota
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpLt
	OpLeq
	OpGt
	OpGeq
	OpEq
	OpNeq
	OpPad
	OpAsUInt
	OpAsSInt
	OpAsClock
	OpAsAsyncReset
	OpShl
	OpShr
	OpDshl
	OpDshr
	OpCvt
	OpNeg
	OpNot
	OpAnd
	OpOr
	OpXor
	OpAndr
	OpOrr
	OpXorr
	OpCat
	OpBits
	OpHead
	OpTail
)

// primSpec describes a primop's signature.
type primSpec struct {
	name    string
	numArgs int
	numPar  int
}

var primSpecs = map[PrimOp]primSpec{
	OpAdd:          {"add", 2, 0},
	OpSub:          {"sub", 2, 0},
	OpMul:          {"mul", 2, 0},
	OpDiv:          {"div", 2, 0},
	OpRem:          {"rem", 2, 0},
	OpLt:           {"lt", 2, 0},
	OpLeq:          {"leq", 2, 0},
	OpGt:           {"gt", 2, 0},
	OpGeq:          {"geq", 2, 0},
	OpEq:           {"eq", 2, 0},
	OpNeq:          {"neq", 2, 0},
	OpPad:          {"pad", 1, 1},
	OpAsUInt:       {"asUInt", 1, 0},
	OpAsSInt:       {"asSInt", 1, 0},
	OpAsClock:      {"asClock", 1, 0},
	OpAsAsyncReset: {"asAsyncReset", 1, 0},
	OpShl:          {"shl", 1, 1},
	OpShr:          {"shr", 1, 1},
	OpDshl:         {"dshl", 2, 0},
	OpDshr:         {"dshr", 2, 0},
	OpCvt:          {"cvt", 1, 0},
	OpNeg:          {"neg", 1, 0},
	OpNot:          {"not", 1, 0},
	OpAnd:          {"and", 2, 0},
	OpOr:           {"or", 2, 0},
	OpXor:          {"xor", 2, 0},
	OpAndr:         {"andr", 1, 0},
	OpOrr:          {"orr", 1, 0},
	OpXorr:         {"xorr", 1, 0},
	OpCat:          {"cat", 2, 0},
	OpBits:         {"bits", 1, 2},
	OpHead:         {"head", 1, 1},
	OpTail:         {"tail", 1, 1},
}

var primByName = func() map[string]PrimOp {
	m := make(map[string]PrimOp, len(primSpecs))
	for op, s := range primSpecs {
		m[s.name] = op
	}
	return m
}()

func (op PrimOp) String() string {
	if s, ok := primSpecs[op]; ok {
		return s.name
	}
	return fmt.Sprintf("primop(%d)", int(op))
}

// PrimArity returns a primop's operand count, or false for codes outside
// the dialect.
func PrimArity(op PrimOp) (int, bool) {
	s, ok := primSpecs[op]
	return s.numArgs, ok
}

// PrimType is the one statement of the primop typing rules: the result
// type of op applied to operands of types args with static parameters
// params (extra parameters are ignored), or why the application is
// ill-formed — mixed UInt/SInt arithmetic or comparison, a static
// parameter out of range, a dynamic shift amount wider than 20 bits.
// An operand width of -1 (not inferred yet) makes the result width -1
// unless the parameters alone fix it, and defers the checks that need it.
func PrimType(op PrimOp, params []int, args []Type) (Type, error) {
	spec, ok := primSpecs[op]
	if !ok || len(args) != spec.numArgs || len(params) < spec.numPar {
		return Type{}, fmt.Errorf("%v: %d operands and %d parameters", op, len(args), len(params))
	}
	a := args[0]
	unknown := a.Width < 0 || len(args) == 2 && args[1].Width < 0
	w := func(k TypeKind, width int) (Type, error) {
		if unknown {
			width = -1
		} else if width < 0 {
			return Type{}, fmt.Errorf("%v result width overflows", op)
		}
		return Type{Kind: k, Width: width}, nil
	}
	u := func(width int) (Type, error) { return Type{Kind: UIntType, Width: width}, nil }
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpLt, OpLeq, OpGt, OpGeq, OpEq, OpNeq:
		if b := args[1]; a.Kind != b.Kind && a.Kind != UnknownType && b.Kind != UnknownType {
			return Type{}, fmt.Errorf("%v mixes %v and %v operands", op, a, b)
		}
	case OpShl, OpShr, OpHead, OpTail:
		if params[0] < 0 {
			return Type{}, fmt.Errorf("%v by negative amount %d", op, params[0])
		}
	case OpDshl, OpDshr:
		if args[1].Width > 20 {
			return Type{}, fmt.Errorf("%v shift operand %d bits wide (limit 20)", op, args[1].Width)
		}
	}
	switch op {
	case OpAdd, OpSub:
		return w(a.Kind, max(a.Width, args[1].Width)+1)
	case OpMul:
		return w(a.Kind, a.Width+args[1].Width)
	case OpDiv:
		if a.Kind == SIntType {
			return w(a.Kind, a.Width+1)
		}
		return w(a.Kind, a.Width)
	case OpRem:
		return w(a.Kind, min(a.Width, args[1].Width))
	case OpLt, OpLeq, OpGt, OpGeq, OpEq, OpNeq, OpAndr, OpOrr, OpXorr:
		return u(1)
	case OpPad:
		return w(a.Kind, max(a.Width, params[0]))
	case OpAsUInt, OpNot:
		return w(UIntType, a.Width)
	case OpAsSInt:
		return w(SIntType, a.Width)
	case OpAsClock:
		return Type{Kind: ClockType, Width: 1}, nil
	case OpAsAsyncReset:
		return Type{Kind: AsyncResetType, Width: 1}, nil
	case OpShl:
		return w(a.Kind, a.Width+params[0])
	case OpShr:
		return w(a.Kind, max(a.Width-params[0], 1))
	case OpDshl:
		return w(a.Kind, a.Width+(1<<max(args[1].Width, 0))-1)
	case OpDshr:
		return w(a.Kind, a.Width)
	case OpCvt:
		if a.Kind == SIntType {
			return w(SIntType, a.Width)
		}
		return w(SIntType, a.Width+1)
	case OpNeg:
		return w(SIntType, a.Width+1)
	case OpAnd, OpOr, OpXor:
		return w(UIntType, max(a.Width, args[1].Width))
	case OpCat:
		return w(UIntType, a.Width+args[1].Width)
	case OpBits:
		hi, lo := params[0], params[1]
		if lo < 0 || hi < lo {
			return Type{}, fmt.Errorf("bits(%d, %d): bad range", hi, lo)
		}
		if !unknown && hi >= a.Width {
			return Type{}, fmt.Errorf("bits(%d, %d) exceeds operand width %d", hi, lo, a.Width)
		}
		return u(hi - lo + 1)
	case OpHead:
		if params[0] == 0 || !unknown && params[0] > a.Width {
			return Type{}, fmt.Errorf("head(%d) of %s operand", params[0], a)
		}
		return u(params[0])
	default: // OpTail
		if !unknown && params[0] >= a.Width {
			return Type{}, fmt.Errorf("tail(%d) of %s operand leaves no bits", params[0], a)
		}
		return w(UIntType, a.Width-params[0])
	}
}

// MuxType is the result type of a mux with arms of types t and f: the
// wider arm's width, and t's kind unless t's is not known yet. A width
// of -1 in either arm makes the result width -1.
func MuxType(t, f Type) Type {
	if t.Kind == UnknownType {
		t.Kind = f.Kind
	}
	if t.Width < 0 || f.Width < 0 {
		return Type{Kind: t.Kind, Width: -1}
	}
	return Type{Kind: t.Kind, Width: max(t.Width, f.Width)}
}

// LookupPrim returns the primop with the given name.
func LookupPrim(name string) (PrimOp, bool) {
	op, ok := primByName[name]
	return op, ok
}

// RefName returns the flattened dotted name of a Ref/SubField chain, or ""
// if the expression is not a reference chain.
func RefName(e Expr) string {
	switch x := e.(type) {
	case *Ref:
		return x.Name
	case *SubField:
		base := RefName(x.Of)
		if base == "" {
			return ""
		}
		return base + "." + x.Field
	default:
		return ""
	}
}

// ExprString renders an expression in FIRRTL concrete syntax.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case *Ref:
		return x.Name
	case *SubField:
		return ExprString(x.Of) + "." + x.Field
	case *Lit:
		base := "UInt"
		v := x.Value
		if x.Type.Kind == SIntType {
			base = "SInt"
		}
		if x.Type.Width >= 0 {
			return fmt.Sprintf("%s<%d>(%v)", base, x.Type.Width, v)
		}
		return fmt.Sprintf("%s(%v)", base, v)
	case *Mux:
		return fmt.Sprintf("mux(%s, %s, %s)", ExprString(x.Cond), ExprString(x.T), ExprString(x.F))
	case *ValidIf:
		return fmt.Sprintf("validif(%s, %s)", ExprString(x.Cond), ExprString(x.V))
	case *Prim:
		parts := make([]string, 0, len(x.Args)+len(x.Params))
		for _, a := range x.Args {
			parts = append(parts, ExprString(a))
		}
		for _, p := range x.Params {
			parts = append(parts, fmt.Sprint(p))
		}
		return fmt.Sprintf("%s(%s)", x.Op, strings.Join(parts, ", "))
	default:
		return "<?>"
	}
}
