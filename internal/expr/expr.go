// Package expr provides bound scalar expressions: predicates and arithmetic
// evaluated over tuples. Expressions are produced by the SQL planner (column
// references already resolved to schema indices) and consumed by storage
// scans, shared operators and the query-at-a-time baseline.
//
// Evaluation is total: type errors and division by zero yield SQL NULL
// rather than runtime errors, matching SQL three-valued semantics closely
// enough for the workloads in this repository.
package expr

import (
	"fmt"
	"strings"

	"shareddb/internal/types"
)

// Expr is a scalar expression over a row. Params carries the positional
// arguments of the prepared statement being evaluated (may be nil when the
// expression contains no Param nodes).
type Expr interface {
	Eval(row types.Row, params []types.Value) types.Value
	String() string
}

// ColRef references a column of the input row by position.
type ColRef struct {
	Idx  int
	Name string // display name, informational only
}

// Eval returns the referenced column value.
func (c *ColRef) Eval(row types.Row, _ []types.Value) types.Value { return row[c.Idx] }

func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Idx)
}

// Const is a literal value.
type Const struct{ Val types.Value }

// Eval returns the literal.
func (c *Const) Eval(types.Row, []types.Value) types.Value { return c.Val }

func (c *Const) String() string {
	if c.Val.Kind() == types.KindString {
		return "'" + c.Val.Str + "'"
	}
	return c.Val.String()
}

// Param references the i-th positional parameter ('?') of a prepared
// statement.
type Param struct{ Idx int }

// Eval returns the bound parameter value (NULL when out of range).
func (p *Param) Eval(_ types.Row, params []types.Value) types.Value {
	if p.Idx < 0 || p.Idx >= len(params) {
		return types.Null
	}
	return params[p.Idx]
}

func (p *Param) String() string { return fmt.Sprintf("?%d", p.Idx) }

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// Negate returns the complementary operator (= ↔ <>, < ↔ >=, …).
func (o CmpOp) Negate() CmpOp {
	switch o {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	}
	return o
}

// Flip returns the operator with operands swapped (< ↔ >, <= ↔ >=).
func (o CmpOp) Flip() CmpOp {
	switch o {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	}
	return o
}

// Cmp compares two sub-expressions. NULL operands yield NULL (which is
// falsy).
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval applies the comparison with SQL NULL propagation.
func (c *Cmp) Eval(row types.Row, params []types.Value) types.Value {
	l := c.L.Eval(row, params)
	r := c.R.Eval(row, params)
	if l.IsNull() || r.IsNull() {
		return types.Null
	}
	d := l.Compare(r)
	var ok bool
	switch c.Op {
	case EQ:
		ok = d == 0
	case NE:
		ok = d != 0
	case LT:
		ok = d < 0
	case LE:
		ok = d <= 0
	case GT:
		ok = d > 0
	case GE:
		ok = d >= 0
	}
	return types.NewBool(ok)
}

func (c *Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R)
}

// And is an n-ary conjunction with short-circuit evaluation.
type And struct{ Kids []Expr }

// Eval returns false as soon as any conjunct is false; NULL if any conjunct
// is NULL and none is false.
func (a *And) Eval(row types.Row, params []types.Value) types.Value {
	sawNull := false
	for _, k := range a.Kids {
		v := k.Eval(row, params)
		if v.IsNull() {
			sawNull = true
			continue
		}
		if !v.AsBool() {
			return types.NewBool(false)
		}
	}
	if sawNull {
		return types.Null
	}
	return types.NewBool(true)
}

func (a *And) String() string { return joinKids(" AND ", a.Kids) }

// Or is an n-ary disjunction with short-circuit evaluation.
type Or struct{ Kids []Expr }

// Eval returns true as soon as any disjunct is true.
func (o *Or) Eval(row types.Row, params []types.Value) types.Value {
	sawNull := false
	for _, k := range o.Kids {
		v := k.Eval(row, params)
		if v.IsNull() {
			sawNull = true
			continue
		}
		if v.AsBool() {
			return types.NewBool(true)
		}
	}
	if sawNull {
		return types.Null
	}
	return types.NewBool(false)
}

func (o *Or) String() string { return joinKids(" OR ", o.Kids) }

func joinKids(sep string, kids []Expr) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = k.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// Not negates a boolean sub-expression (NULL stays NULL).
type Not struct{ Kid Expr }

// Eval negates the child.
func (n *Not) Eval(row types.Row, params []types.Value) types.Value {
	v := n.Kid.Eval(row, params)
	if v.IsNull() {
		return types.Null
	}
	return types.NewBool(!v.AsBool())
}

func (n *Not) String() string { return "NOT " + n.Kid.String() }

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

func (o ArithOp) String() string { return [...]string{"+", "-", "*", "/", "%"}[o] }

// Arith applies binary arithmetic. INT op INT stays INT (except /, which
// promotes to FLOAT when inexact); any FLOAT operand promotes to FLOAT.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval computes the arithmetic result with NULL propagation.
func (a *Arith) Eval(row types.Row, params []types.Value) types.Value {
	l := a.L.Eval(row, params)
	r := a.R.Eval(row, params)
	if l.IsNull() || r.IsNull() {
		return types.Null
	}
	if l.Kind() == types.KindFloat || r.Kind() == types.KindFloat {
		x, y := l.AsFloat(), r.AsFloat()
		switch a.Op {
		case Add:
			return types.NewFloat(x + y)
		case Sub:
			return types.NewFloat(x - y)
		case Mul:
			return types.NewFloat(x * y)
		case Div:
			if y == 0 {
				return types.Null
			}
			return types.NewFloat(x / y)
		case Mod:
			// Modulo truncates both operands to integers; a divisor that
			// truncates to zero (|y| < 1) is a division by zero.
			if int64(y) == 0 {
				return types.Null
			}
			return types.NewFloat(float64(int64(x) % int64(y)))
		}
	}
	x, y := l.AsInt(), r.AsInt()
	switch a.Op {
	case Add:
		return types.NewInt(x + y)
	case Sub:
		return types.NewInt(x - y)
	case Mul:
		return types.NewInt(x * y)
	case Div:
		if y == 0 {
			return types.Null
		}
		if x%y == 0 {
			return types.NewInt(x / y)
		}
		return types.NewFloat(float64(x) / float64(y))
	case Mod:
		if y == 0 {
			return types.Null
		}
		return types.NewInt(x % y)
	}
	return types.Null
}

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// IsNull tests a sub-expression for (non-)NULLness.
type IsNull struct {
	Kid    Expr
	Negate bool // IS NOT NULL
}

// Eval returns the NULL test result (never NULL itself).
func (n *IsNull) Eval(row types.Row, params []types.Value) types.Value {
	isNull := n.Kid.Eval(row, params).IsNull()
	if n.Negate {
		return types.NewBool(!isNull)
	}
	return types.NewBool(isNull)
}

func (n *IsNull) String() string {
	if n.Negate {
		return n.Kid.String() + " IS NOT NULL"
	}
	return n.Kid.String() + " IS NULL"
}

// In tests membership of the left expression in a literal list.
type In struct {
	L      Expr
	List   []Expr
	Negate bool
}

// Eval applies the membership test with NULL propagation.
func (in *In) Eval(row types.Row, params []types.Value) types.Value {
	l := in.L.Eval(row, params)
	if l.IsNull() {
		return types.Null
	}
	found := false
	for _, e := range in.List {
		if l.Equal(e.Eval(row, params)) {
			found = true
			break
		}
	}
	if in.Negate {
		return types.NewBool(!found)
	}
	return types.NewBool(found)
}

func (in *In) String() string {
	op := " IN "
	if in.Negate {
		op = " NOT IN "
	}
	return in.L.String() + op + joinKids(", ", in.List)
}

// TruthyEval evaluates e as a predicate: NULL counts as false.
func TruthyEval(e Expr, row types.Row, params []types.Value) bool {
	if e == nil {
		return true
	}
	v := e.Eval(row, params)
	return !v.IsNull() && v.AsBool()
}
