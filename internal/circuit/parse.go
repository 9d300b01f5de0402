package circuit

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Parse reads the .qc text format:
//
//	# comment
//	qubits 5
//	h 0
//	cnot 0 1
//	measure 2
//	move 3 cells=120 corners=2
//
// The qubits directive must appear before any operation. Gate mnemonics
// match OpType.String(); blank lines and #-comments are ignored.
func Parse(r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	var c *Circuit
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		mnem := strings.ToLower(fields[0])
		if mnem == "qubits" {
			if c != nil {
				return nil, fmt.Errorf("line %d: duplicate qubits directive", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: qubits takes one argument", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("line %d: bad qubit count %q", lineNo, fields[1])
			}
			c = New(n)
			continue
		}
		if c == nil {
			return nil, fmt.Errorf("line %d: operation before qubits directive", lineNo)
		}
		if err := parseOp(c, mnem, fields[1:]); err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("circuit: empty input (missing qubits directive)")
	}
	return c, nil
}

var mnemonic = func() map[string]OpType {
	m := make(map[string]OpType)
	for t := OpType(0); t < numOpTypes; t++ {
		m[t.String()] = t
	}
	return m
}()

func parseOp(c *Circuit, mnem string, args []string) error {
	t, ok := mnemonic[mnem]
	if !ok {
		return fmt.Errorf("unknown operation %q", mnem)
	}
	atoi := func(s string) (int, error) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("bad integer %q", s)
		}
		return v, nil
	}
	guard := func(q int) error {
		if q < 0 || q >= c.N {
			return fmt.Errorf("qubit %d out of range [0,%d)", q, c.N)
		}
		return nil
	}
	switch {
	case t == Move:
		if len(args) < 1 {
			return fmt.Errorf("move needs a qubit")
		}
		q, err := atoi(args[0])
		if err != nil {
			return err
		}
		if err := guard(q); err != nil {
			return err
		}
		cells, corners := 0, 0
		for _, kv := range args[1:] {
			k, v, found := strings.Cut(kv, "=")
			if !found {
				return fmt.Errorf("bad move attribute %q", kv)
			}
			n, err := atoi(v)
			if err != nil || n < 0 {
				return fmt.Errorf("bad move attribute %q", kv)
			}
			switch k {
			case "cells":
				cells = n
			case "corners":
				corners = n
			default:
				return fmt.Errorf("unknown move attribute %q", k)
			}
		}
		c.Move(q, cells, corners)
	case t.IsTwoQubit():
		if len(args) != 2 {
			return fmt.Errorf("%s needs two qubits", mnem)
		}
		a, err := atoi(args[0])
		if err != nil {
			return err
		}
		b, err := atoi(args[1])
		if err != nil {
			return err
		}
		if err := guard(a); err != nil {
			return err
		}
		if err := guard(b); err != nil {
			return err
		}
		if a == b {
			return fmt.Errorf("%s with identical operands %d", mnem, a)
		}
		c.Ops = append(c.Ops, Op{Type: t, Q: [2]int{a, b}})
	default:
		if len(args) != 1 {
			return fmt.Errorf("%s needs one qubit", mnem)
		}
		q, err := atoi(args[0])
		if err != nil {
			return err
		}
		if err := guard(q); err != nil {
			return err
		}
		c.Ops = append(c.Ops, Op{Type: t, Q: [2]int{q, -1}})
	}
	return nil
}
