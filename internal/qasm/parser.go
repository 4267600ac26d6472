package qasm

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"qproc/internal/circuit"
)

// Parse reads an OpenQASM 2.0 program from r. Supported statements:
// OPENQASM version, include, one qreg, one creg, the named single-qubit
// gates, cx, swap, ccx, barrier and measure. Gate arguments must be
// indexed register references (q[3]); parameters may use pi, unary minus,
// and the binary operators + - * /.
func Parse(r io.Reader) (*circuit.Circuit, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("qasm: %w", err)
	}
	return ParseString(string(src))
}

// ParseString parses a QASM program from a string.
func ParseString(src string) (*circuit.Circuit, error) {
	p := &parser{}
	if err := p.run(src); err != nil {
		return nil, err
	}
	return p.circ, nil
}

type parser struct {
	circ  *circuit.Circuit
	qname string
	cname string
	csize int
	line  int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("qasm: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *parser) run(src string) error {
	// Strip comments, split on semicolons.
	var clean strings.Builder
	lines := strings.Split(src, "\n")
	for _, l := range lines {
		if i := strings.Index(l, "//"); i >= 0 {
			l = l[:i]
		}
		clean.WriteString(l)
		clean.WriteByte('\n')
	}
	// next is the 1-based line the next statement's text starts on; an
	// error names the line of the statement's first character.
	next := 1
	for _, raw := range strings.Split(clean.String(), ";") {
		lead := len(raw) - len(strings.TrimLeft(raw, " \t\r\n"))
		p.line = next + strings.Count(raw[:lead], "\n")
		next += strings.Count(raw, "\n")
		stmt := strings.TrimSpace(strings.ReplaceAll(raw, "\n", " "))
		if stmt == "" {
			continue
		}
		if err := p.statement(stmt); err != nil {
			return err
		}
	}
	if p.circ == nil {
		return fmt.Errorf("qasm: no qreg declaration found")
	}
	return nil
}

func (p *parser) statement(stmt string) error {
	switch {
	case strings.HasPrefix(stmt, "OPENQASM"):
		v := strings.TrimSpace(strings.TrimPrefix(stmt, "OPENQASM"))
		if v != "2.0" {
			return p.errf("unsupported OPENQASM version %q", v)
		}
		return nil
	case strings.HasPrefix(stmt, "include"):
		return nil
	case strings.HasPrefix(stmt, "qreg"):
		name, size, err := parseReg(strings.TrimPrefix(stmt, "qreg"))
		if err != nil {
			return p.errf("qreg: %v", err)
		}
		if p.circ != nil {
			return p.errf("multiple qreg declarations")
		}
		p.qname = name
		p.circ = circuit.New("", size)
		return nil
	case strings.HasPrefix(stmt, "creg"):
		name, size, err := parseReg(strings.TrimPrefix(stmt, "creg"))
		if err != nil {
			return p.errf("creg: %v", err)
		}
		p.cname, p.csize = name, size
		return nil
	case strings.HasPrefix(stmt, "measure"):
		return p.measure(strings.TrimPrefix(stmt, "measure"))
	case strings.HasPrefix(stmt, "barrier"):
		return p.barrier(strings.TrimSpace(strings.TrimPrefix(stmt, "barrier")))
	}
	return p.gate(stmt)
}

// parseReg parses `name[size]`.
func parseReg(s string) (string, int, error) {
	name, size, err := parseIndexed(s)
	if err != nil {
		return "", 0, fmt.Errorf("malformed register %q", strings.TrimSpace(s))
	}
	if size <= 0 {
		return "", 0, fmt.Errorf("bad register size in %q", strings.TrimSpace(s))
	}
	return name, size, nil
}

// qubitRef parses `q[i]` against the declared quantum register.
func (p *parser) qubitRef(s string) (int, error) {
	s = strings.TrimSpace(s)
	if p.circ == nil {
		return 0, fmt.Errorf("gate before qreg declaration")
	}
	name, idx, err := parseIndexed(s)
	if err != nil {
		return 0, err
	}
	if name != p.qname {
		return 0, fmt.Errorf("unknown quantum register %q", name)
	}
	if idx < 0 || idx >= p.circ.Qubits {
		return 0, fmt.Errorf("qubit index %d outside [0,%d)", idx, p.circ.Qubits)
	}
	return idx, nil
}

// parseIndexed parses `name[i]`, with nothing after the closing bracket.
func parseIndexed(s string) (string, int, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '[')
	close := strings.IndexByte(s, ']')
	if open <= 0 || close < open || close != len(s)-1 {
		return "", 0, fmt.Errorf("malformed reference %q", s)
	}
	idx, err := strconv.Atoi(s[open+1 : close])
	if err != nil {
		return "", 0, fmt.Errorf("bad index in %q", s)
	}
	return strings.TrimSpace(s[:open]), idx, nil
}

func (p *parser) measure(rest string) error {
	parts := strings.Split(rest, "->")
	if len(parts) != 2 {
		return p.errf("malformed measure %q", rest)
	}
	q, err := p.qubitRef(parts[0])
	if err != nil {
		return p.errf("measure: %v", err)
	}
	if name, c, err := parseIndexed(parts[1]); err != nil || name != p.cname || c < 0 || c >= p.csize {
		return p.errf("measure: bad classical bit %q", strings.TrimSpace(parts[1]))
	}
	p.circ.Append(circuit.NewMeasure(q))
	return nil
}

func (p *parser) barrier(rest string) error {
	if p.circ == nil {
		return p.errf("barrier before qreg declaration")
	}
	if rest == p.qname || rest == "" {
		p.circ.Append(circuit.Gate{Kind: circuit.Barrier})
		return nil
	}
	qs, err := p.qubitList(rest)
	if err != nil {
		return p.errf("barrier: %v", err)
	}
	p.circ.Append(circuit.Gate{Kind: circuit.Barrier, Qubits: qs})
	return nil
}

// qubitList parses a comma-separated list of distinct qubit references;
// an empty list is no qubits.
func (p *parser) qubitList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var qs []int
	seen := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		q, err := p.qubitRef(part)
		if err != nil {
			return nil, err
		}
		if seen[q] {
			return nil, fmt.Errorf("qubit %d repeated", q)
		}
		seen[q] = true
		qs = append(qs, q)
	}
	return qs, nil
}

// knownOneQubit lists the single-qubit mnemonics the circuit model (and
// the state-vector simulator) understand, with their parameter counts.
var knownOneQubit = map[string]int{
	"id": 0, "x": 0, "y": 0, "z": 0, "h": 0, "s": 0, "sdg": 0,
	"t": 0, "tdg": 0, "rz": 1, "rx": 1, "ry": 1, "p": 1, "u1": 1,
}

func (p *parser) gate(stmt string) error {
	name := stmt
	var params []float64
	rest := ""
	if i := strings.IndexAny(stmt, " ("); i >= 0 {
		name, rest = stmt[:i], stmt[i:]
	}
	rest = strings.TrimSpace(rest)
	if strings.HasPrefix(rest, "(") {
		// Find the matching close paren: parameter expressions may nest.
		depth, close := 0, -1
		for i, ch := range rest {
			if ch == '(' {
				depth++
			} else if ch == ')' {
				depth--
				if depth == 0 {
					close = i
					break
				}
			}
		}
		if close < 0 {
			return p.errf("unclosed parameter list in %q", stmt)
		}
		for _, ps := range strings.Split(rest[1:close], ",") {
			v, err := evalParam(ps)
			if err != nil {
				return p.errf("parameter %q: %v", ps, err)
			}
			params = append(params, v)
		}
		rest = strings.TrimSpace(rest[close+1:])
	}
	qubits, err := p.qubitList(rest)
	if err != nil {
		return p.errf("%s: %v", name, err)
	}
	kind, arity, np := circuit.OneQubit, 1, 0
	switch name {
	case "cx", "CX":
		kind, arity = circuit.CX, 2
	case "swap":
		kind, arity = circuit.SWAP, 2
	case "ccx":
		kind, arity = circuit.CCX, 3
	default:
		var ok bool
		if np, ok = knownOneQubit[name]; !ok {
			return p.errf("unsupported gate %q", name)
		}
	}
	if len(qubits) != arity {
		return p.errf("%s needs %d qubits, have %d", name, arity, len(qubits))
	}
	if len(params) != np {
		return p.errf("%s needs %d parameters, have %d", name, np, len(params))
	}
	g := circuit.Gate{Kind: kind, Qubits: qubits}
	if kind == circuit.OneQubit {
		g.Name, g.Params = name, params
	}
	p.circ.Append(g)
	return nil
}

// evalParam evaluates a parameter expression: floats, pi, unary minus and
// the binary operators + - * / with conventional precedence.
func evalParam(s string) (float64, error) {
	e := &exprParser{src: strings.TrimSpace(s)}
	v, err := e.expr()
	if err != nil {
		return 0, err
	}
	e.skipSpace()
	if e.pos != len(e.src) {
		return 0, fmt.Errorf("trailing input at %q", e.src[e.pos:])
	}
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, fmt.Errorf("value %g is not finite", v)
	}
	return v, nil
}

type exprParser struct {
	src string
	pos int
}

func (e *exprParser) skipSpace() {
	for e.pos < len(e.src) && (e.src[e.pos] == ' ' || e.src[e.pos] == '\t') {
		e.pos++
	}
}

func (e *exprParser) expr() (float64, error) {
	v, err := e.term()
	if err != nil {
		return 0, err
	}
	for {
		e.skipSpace()
		if e.pos >= len(e.src) {
			return v, nil
		}
		switch e.src[e.pos] {
		case '+':
			e.pos++
			t, err := e.term()
			if err != nil {
				return 0, err
			}
			v += t
		case '-':
			e.pos++
			t, err := e.term()
			if err != nil {
				return 0, err
			}
			v -= t
		default:
			return v, nil
		}
	}
}

func (e *exprParser) term() (float64, error) {
	v, err := e.factor()
	if err != nil {
		return 0, err
	}
	for {
		e.skipSpace()
		if e.pos >= len(e.src) {
			return v, nil
		}
		switch e.src[e.pos] {
		case '*':
			e.pos++
			f, err := e.factor()
			if err != nil {
				return 0, err
			}
			v *= f
		case '/':
			e.pos++
			f, err := e.factor()
			if err != nil {
				return 0, err
			}
			if f == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			v /= f
		default:
			return v, nil
		}
	}
}

func (e *exprParser) factor() (float64, error) {
	e.skipSpace()
	if e.pos >= len(e.src) {
		return 0, fmt.Errorf("unexpected end of expression")
	}
	switch {
	case e.src[e.pos] == '-':
		e.pos++
		v, err := e.factor()
		return -v, err
	case e.src[e.pos] == '(':
		e.pos++
		v, err := e.expr()
		if err != nil {
			return 0, err
		}
		e.skipSpace()
		if e.pos >= len(e.src) || e.src[e.pos] != ')' {
			return 0, fmt.Errorf("missing )")
		}
		e.pos++
		return v, nil
	case strings.HasPrefix(e.src[e.pos:], "pi"):
		e.pos += 2
		return math.Pi, nil
	default:
		start := e.pos
		for e.pos < len(e.src) {
			ch := e.src[e.pos]
			if ch >= '0' && ch <= '9' || ch == '.' || ch == 'e' || ch == 'E' ||
				(e.pos > start && (ch == '+' || ch == '-') && (e.src[e.pos-1] == 'e' || e.src[e.pos-1] == 'E')) {
				e.pos++
				continue
			}
			break
		}
		if start == e.pos {
			return 0, fmt.Errorf("expected number at %q", e.src[start:])
		}
		return strconv.ParseFloat(e.src[start:e.pos], 64)
	}
}
