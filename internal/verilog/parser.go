package verilog

import (
	"fmt"
	"strconv"
	"strings"
)

// ---- AST ----

type vmodule struct {
	name    string
	ports   []vport
	wires   []vdecl
	regs    []vdecl
	assigns []vassign
	always  []valways
	insts   []vinst
	line    int
}

type vport struct {
	name  string
	dir   string // "input" or "output"
	width int
	isReg bool
	line  int
}

type vdecl struct {
	name  string
	width int
	line  int
}

type vassign struct {
	lhs  string
	rhs  vexpr
	line int
}

type valways struct {
	clock string
	body  []vstmt
	line  int
}

type vinst struct {
	module string
	name   string
	// conns maps child port name → parent expression.
	conns map[string]vexpr
	order []string
	line  int
}

type vstmt interface{ vstmt() }

type vNonblocking struct {
	lhs  string
	rhs  vexpr
	line int
}

type vIf struct {
	cond        vexpr
	then, else_ []vstmt
	line        int
}

type vCase struct {
	subject vexpr
	arms    []vCaseArm
	def     []vstmt
	line    int
}

type vCaseArm struct {
	labels []vexpr // constant expressions
	body   []vstmt
}

func (vNonblocking) vstmt() {}
func (vIf) vstmt()          {}
func (vCase) vstmt()        {}

type vexpr interface{ vexpr() }

type vIdent struct{ name string }
type vLit struct {
	value uint64
	width int // -1 when unsized
}
type vUnary struct {
	op string
	x  vexpr
}
type vBinary struct {
	op   string
	l, r vexpr
}
type vTernary struct{ cond, t, f vexpr }
type vConcat struct{ parts []vexpr }
type vRepl struct {
	count int
	x     vexpr
}
type vIndex struct {
	base    string
	hi, lo  int
	isRange bool
}

func (vIdent) vexpr()   {}
func (vLit) vexpr()     {}
func (vUnary) vexpr()   {}
func (vBinary) vexpr()  {}
func (vTernary) vexpr() {}
func (vConcat) vexpr()  {}
func (vRepl) vexpr()    {}
func (vIndex) vexpr()   {}

// ---- Parser ----

type vparser struct {
	toks []vtok
	i    int
}

// ParseModules parses all modules in a source file.
func ParseModules(src string) ([]*vmodule, error) {
	toks, err := vlex(src)
	if err != nil {
		return nil, err
	}
	p := &vparser{toks: toks}
	var mods []*vmodule
	for !p.at(vEOF) {
		m, err := p.module()
		if err != nil {
			return nil, err
		}
		mods = append(mods, m)
	}
	if len(mods) == 0 {
		return nil, fmt.Errorf("verilog: no modules found")
	}
	return mods, nil
}

func (p *vparser) peek() vtok { return p.toks[p.i] }
func (p *vparser) next() vtok { t := p.toks[p.i]; p.i++; return t }
func (p *vparser) at(k vtokKind) bool {
	return p.toks[p.i].kind == k
}
func (p *vparser) atPunct(s string) bool {
	t := p.peek()
	return t.kind == vPunct && t.text == s
}
func (p *vparser) atKw(s string) bool {
	t := p.peek()
	return t.kind == vID && t.text == s
}
func (p *vparser) acceptPunct(s string) bool {
	if p.atPunct(s) {
		p.i++
		return true
	}
	return false
}
func (p *vparser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q, found %q", s, p.peek().text)
	}
	return nil
}
func (p *vparser) expectKw(s string) error {
	if !p.atKw(s) {
		return p.errf("expected %q, found %q", s, p.peek().text)
	}
	p.i++
	return nil
}
func (p *vparser) expectID() (string, error) {
	if !p.at(vID) {
		return "", p.errf("expected identifier, found %q", p.peek().text)
	}
	return p.next().text, nil
}
func (p *vparser) errf(format string, args ...any) error {
	return fmt.Errorf("verilog: line %d: %s", p.peek().line, fmt.Sprintf(format, args...))
}

// rangeWidth parses an optional `[hi:lo]` and returns the width (1 when
// absent). Only zero-based descending ranges are accepted.
func (p *vparser) rangeWidth() (int, error) {
	if !p.acceptPunct("[") {
		return 1, nil
	}
	hi, err := p.constInt()
	if err != nil {
		return 0, err
	}
	if err := p.expectPunct(":"); err != nil {
		return 0, err
	}
	lo, err := p.constInt()
	if err != nil {
		return 0, err
	}
	if err := p.expectPunct("]"); err != nil {
		return 0, err
	}
	if lo != 0 || hi < 0 {
		return 0, p.errf("only [N:0] ranges are supported")
	}
	return hi + 1, nil
}

func (p *vparser) constInt() (int, error) {
	if !p.at(vNumber) {
		return 0, p.errf("expected constant, found %q", p.peek().text)
	}
	t := p.next().text
	lit, err := parseVNumber(t)
	if err != nil {
		return 0, p.errf("%v", err)
	}
	return int(lit.value), nil
}

func parseVNumber(s string) (vLit, error) {
	if !strings.Contains(s, "'") {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return vLit{}, fmt.Errorf("bad number %q", s)
		}
		return vLit{value: v, width: -1}, nil
	}
	parts := strings.SplitN(s, "'", 2)
	width := -1
	if parts[0] != "" {
		w, err := strconv.Atoi(parts[0])
		if err != nil {
			return vLit{}, fmt.Errorf("bad size in %q", s)
		}
		width = w
	}
	rest := parts[1]
	if rest == "" {
		return vLit{}, fmt.Errorf("bad literal %q", s)
	}
	if rest[0] == 's' || rest[0] == 'S' {
		rest = rest[1:] // signedness ignored (subset is unsigned)
	}
	if rest == "" {
		return vLit{}, fmt.Errorf("bad literal %q", s)
	}
	base := 10
	switch rest[0] {
	case 'h', 'H':
		base = 16
	case 'b', 'B':
		base = 2
	case 'o', 'O':
		base = 8
	case 'd', 'D':
		base = 10
	default:
		return vLit{}, fmt.Errorf("bad base in %q", s)
	}
	digits := rest[1:]
	if strings.ContainsAny(digits, "xzXZ") {
		return vLit{}, fmt.Errorf("x/z literals not supported (%q)", s)
	}
	v, err := strconv.ParseUint(digits, base, 64)
	if err != nil {
		return vLit{}, fmt.Errorf("bad digits in %q", s)
	}
	if width > 64 {
		return vLit{}, fmt.Errorf("literal %q wider than 64 bits", s)
	}
	if width > 0 && width < 64 {
		v &= 1<<uint(width) - 1
	}
	return vLit{value: v, width: width}, nil
}

func (p *vparser) module() (*vmodule, error) {
	line := p.peek().line
	if err := p.expectKw("module"); err != nil {
		return nil, err
	}
	name, err := p.expectID()
	if err != nil {
		return nil, err
	}
	m := &vmodule{name: name, line: line}

	// Port list: ANSI (with directions) or classic (names only).
	if p.acceptPunct("(") {
		for !p.atPunct(")") {
			if p.atKw("input") || p.atKw("output") {
				dir := p.next().text
				isReg := false
				if p.atKw("reg") {
					isReg = true
					p.i++
				}
				if p.atKw("wire") {
					p.i++
				}
				w, err := p.rangeWidth()
				if err != nil {
					return nil, err
				}
				line := p.peek().line
				pn, err := p.expectID()
				if err != nil {
					return nil, err
				}
				m.ports = append(m.ports, vport{pn, dir, w, isReg, line})
				if isReg {
					m.regs = append(m.regs, vdecl{pn, w, line})
				}
			} else {
				// Classic style: bare names, directions declared inside.
				line := p.peek().line
				pn, err := p.expectID()
				if err != nil {
					return nil, err
				}
				m.ports = append(m.ports, vport{pn, "", 1, false, line})
			}
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}

	// Body items.
	for !p.atKw("endmodule") {
		switch {
		case p.atKw("input"), p.atKw("output"):
			dir := p.next().text
			isReg := false
			if p.atKw("reg") {
				isReg = true
				p.i++
			}
			if p.atKw("wire") {
				p.i++
			}
			w, err := p.rangeWidth()
			if err != nil {
				return nil, err
			}
			for {
				line := p.peek().line
				pn, err := p.expectID()
				if err != nil {
					return nil, err
				}
				found := false
				for i := range m.ports {
					if m.ports[i].name == pn {
						m.ports[i].dir = dir
						m.ports[i].width = w
						m.ports[i].isReg = isReg
						m.ports[i].line = line
						found = true
					}
				}
				if !found {
					return nil, p.errf("direction for undeclared port %q", pn)
				}
				if isReg {
					m.regs = append(m.regs, vdecl{pn, w, line})
				}
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
		case p.atKw("wire"):
			p.i++
			w, err := p.rangeWidth()
			if err != nil {
				return nil, err
			}
			for {
				line := p.peek().line
				wn, err := p.expectID()
				if err != nil {
					return nil, err
				}
				m.wires = append(m.wires, vdecl{wn, w, line})
				// `wire x = expr;` declares and assigns in one statement.
				if p.acceptPunct("=") {
					rhs, err := p.expr()
					if err != nil {
						return nil, err
					}
					m.assigns = append(m.assigns, vassign{wn, rhs, line})
				}
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
		case p.atKw("reg"):
			p.i++
			w, err := p.rangeWidth()
			if err != nil {
				return nil, err
			}
			for {
				line := p.peek().line
				rn, err := p.expectID()
				if err != nil {
					return nil, err
				}
				m.regs = append(m.regs, vdecl{rn, w, line})
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
		case p.atKw("assign"):
			p.i++
			line := p.peek().line
			lhs, err := p.expectID()
			if err != nil {
				return nil, err
			}
			if p.atPunct("[") {
				return nil, p.errf("part-select assignment targets are not supported")
			}
			if err := p.expectPunct("="); err != nil {
				return nil, err
			}
			rhs, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			m.assigns = append(m.assigns, vassign{lhs, rhs, line})
		case p.atKw("always"):
			aw, err := p.alwaysBlock()
			if err != nil {
				return nil, err
			}
			m.always = append(m.always, aw)
		case p.at(vID):
			inst, err := p.instance()
			if err != nil {
				return nil, err
			}
			m.insts = append(m.insts, inst)
		default:
			return nil, p.errf("unexpected token %q in module body", p.peek().text)
		}
	}
	p.i++ // endmodule
	return m, nil
}

func (p *vparser) alwaysBlock() (valways, error) {
	line := p.peek().line
	p.i++ // always
	if err := p.expectPunct("@"); err != nil {
		return valways{}, err
	}
	if err := p.expectPunct("("); err != nil {
		return valways{}, err
	}
	if err := p.expectKw("posedge"); err != nil {
		return valways{}, fmt.Errorf(
			"verilog: line %d: only always @(posedge clk) is supported", line)
	}
	clk, err := p.expectID()
	if err != nil {
		return valways{}, err
	}
	if err := p.expectPunct(")"); err != nil {
		return valways{}, err
	}
	body, err := p.stmtOrBlock()
	if err != nil {
		return valways{}, err
	}
	return valways{clock: clk, body: body, line: line}, nil
}

func (p *vparser) stmtOrBlock() ([]vstmt, error) {
	if p.atKw("begin") {
		p.i++
		var out []vstmt
		for !p.atKw("end") {
			s, err := p.stmt()
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		p.i++
		return out, nil
	}
	s, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return []vstmt{s}, nil
}

func (p *vparser) stmt() (vstmt, error) {
	line := p.peek().line
	switch {
	case p.atKw("if"):
		p.i++
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		then, err := p.stmtOrBlock()
		if err != nil {
			return nil, err
		}
		st := vIf{cond: cond, then: then, line: line}
		if p.atKw("else") {
			p.i++
			els, err := p.stmtOrBlock()
			if err != nil {
				return nil, err
			}
			st.else_ = els
		}
		return st, nil
	case p.atKw("case"):
		p.i++
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		subj, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		cs := vCase{subject: subj, line: line}
		for !p.atKw("endcase") {
			if p.atKw("default") {
				p.i++
				if err := p.expectPunct(":"); err != nil {
					return nil, err
				}
				body, err := p.stmtOrBlock()
				if err != nil {
					return nil, err
				}
				cs.def = body
				continue
			}
			var labels []vexpr
			for {
				l, err := p.expr()
				if err != nil {
					return nil, err
				}
				labels = append(labels, l)
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct(":"); err != nil {
				return nil, err
			}
			body, err := p.stmtOrBlock()
			if err != nil {
				return nil, err
			}
			cs.arms = append(cs.arms, vCaseArm{labels: labels, body: body})
		}
		p.i++ // endcase
		return cs, nil
	case p.at(vID):
		lhs, err := p.expectID()
		if err != nil {
			return nil, err
		}
		if p.atPunct("[") {
			return nil, p.errf("indexed register assignment is not supported")
		}
		if !p.acceptPunct("<=") {
			return nil, p.errf("expected '<=' (only non-blocking assignments are supported)")
		}
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return vNonblocking{lhs: lhs, rhs: rhs, line: line}, nil
	default:
		return nil, p.errf("unexpected statement token %q", p.peek().text)
	}
}

func (p *vparser) instance() (vinst, error) {
	line := p.peek().line
	module, err := p.expectID()
	if err != nil {
		return vinst{}, err
	}
	name, err := p.expectID()
	if err != nil {
		return vinst{}, err
	}
	if err := p.expectPunct("("); err != nil {
		return vinst{}, err
	}
	inst := vinst{module: module, name: name, conns: map[string]vexpr{}, line: line}
	for !p.atPunct(")") {
		if err := p.expectPunct("."); err != nil {
			return vinst{}, fmt.Errorf(
				"verilog: line %d: only named port connections are supported", line)
		}
		port, err := p.expectID()
		if err != nil {
			return vinst{}, err
		}
		if err := p.expectPunct("("); err != nil {
			return vinst{}, err
		}
		var e vexpr
		if !p.atPunct(")") {
			e, err = p.expr()
			if err != nil {
				return vinst{}, err
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return vinst{}, err
		}
		inst.conns[port] = e
		inst.order = append(inst.order, port)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return vinst{}, err
	}
	if err := p.expectPunct(";"); err != nil {
		return vinst{}, err
	}
	return inst, nil
}

// ---- Expression parsing (precedence climbing) ----

func (p *vparser) expr() (vexpr, error) { return p.ternary() }

func (p *vparser) ternary() (vexpr, error) {
	c, err := p.logicalOr()
	if err != nil {
		return nil, err
	}
	if !p.acceptPunct("?") {
		return c, nil
	}
	t, err := p.ternary()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	f, err := p.ternary()
	if err != nil {
		return nil, err
	}
	return vTernary{c, t, f}, nil
}

// binLevel builds one precedence level.
func (p *vparser) binLevel(ops []string, sub func() (vexpr, error)) (vexpr, error) {
	l, err := sub()
	if err != nil {
		return nil, err
	}
	for {
		matched := ""
		for _, op := range ops {
			if p.atPunct(op) {
				matched = op
				break
			}
		}
		if matched == "" {
			return l, nil
		}
		p.i++
		r, err := sub()
		if err != nil {
			return nil, err
		}
		l = vBinary{matched, l, r}
	}
}

func (p *vparser) logicalOr() (vexpr, error) {
	return p.binLevel([]string{"||"}, p.logicalAnd)
}
func (p *vparser) logicalAnd() (vexpr, error) {
	return p.binLevel([]string{"&&"}, p.bitOr)
}
func (p *vparser) bitOr() (vexpr, error) {
	return p.binLevel([]string{"|"}, p.bitXor)
}
func (p *vparser) bitXor() (vexpr, error) {
	return p.binLevel([]string{"^"}, p.bitAnd)
}
func (p *vparser) bitAnd() (vexpr, error) {
	return p.binLevel([]string{"&"}, p.equality)
}
func (p *vparser) equality() (vexpr, error) {
	return p.binLevel([]string{"==", "!="}, p.relational)
}
func (p *vparser) relational() (vexpr, error) {
	return p.binLevel([]string{"<=", "<", ">=", ">"}, p.shift)
}
func (p *vparser) shift() (vexpr, error) {
	return p.binLevel([]string{"<<", ">>"}, p.additive)
}
func (p *vparser) additive() (vexpr, error) {
	return p.binLevel([]string{"+", "-"}, p.multiplicative)
}
func (p *vparser) multiplicative() (vexpr, error) {
	return p.binLevel([]string{"*", "/", "%"}, p.unary)
}

func (p *vparser) unary() (vexpr, error) {
	for _, op := range []string{"~", "!", "-", "&", "|", "^"} {
		if p.atPunct(op) {
			p.i++
			x, err := p.unary()
			if err != nil {
				return nil, err
			}
			return vUnary{op, x}, nil
		}
	}
	return p.primary()
}

func (p *vparser) primary() (vexpr, error) {
	switch {
	case p.at(vNumber):
		lit, err := parseVNumber(p.next().text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		return lit, nil
	case p.acceptPunct("("):
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.acceptPunct("{"):
		// Concat or replication.
		first, err := p.expr()
		if err != nil {
			return nil, err
		}
		if p.atPunct("{") {
			// {N{expr}}
			count, ok := first.(vLit)
			if !ok {
				return nil, p.errf("replication count must be a constant")
			}
			p.i++
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, err
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, err
			}
			return vRepl{count: int(count.value), x: x}, nil
		}
		parts := []vexpr{first}
		for p.acceptPunct(",") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			parts = append(parts, e)
		}
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
		return vConcat{parts}, nil
	case p.at(vID):
		name := p.next().text
		if p.acceptPunct("[") {
			hi, err := p.constInt()
			if err != nil {
				return nil, err
			}
			if p.acceptPunct(":") {
				lo, err := p.constInt()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct("]"); err != nil {
					return nil, err
				}
				return vIndex{base: name, hi: hi, lo: lo, isRange: true}, nil
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			return vIndex{base: name, hi: hi, lo: hi}, nil
		}
		return vIdent{name}, nil
	default:
		return nil, p.errf("unexpected token %q in expression", p.peek().text)
	}
}
