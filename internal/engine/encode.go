package engine

// Canonical JSON without reflection. The content address of a Spec is
// the hash of its canonical encoding, so the bytes written here must be
// exactly the bytes json.Marshal writes for the same values: strings
// HTML-escaped, floats in ES6 form, map keys sorted bytewise, empty
// fields omitted as the struct tags say. FuzzSpecDecode and
// TestAppendMatchesMarshal hold the encoder to encoding/json; on the
// error paths encoding/json itself produces the error, so the text
// matches too.

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"qla/internal/iontrap"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string, escaped as json.Marshal
// escapes it: `<`, `>` and `&` as HTML-safe \u escapes, U+2028 and
// U+2029 escaped, each byte of invalid UTF-8 replaced by \ufffd, and
// control characters as short escapes where JSON has one.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends f as json.Marshal formats a float64: the shortest
// representation, in exponent form below 1e-6 and from 1e21 on, with
// the exponent unpadded. NaN and ±Inf are an error, as they are for
// json.Marshal.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return dst, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendValue appends v as json.Marshal encodes it. The types parameter
// coercion produces — int, uint64, float64, bool, string, []float64,
// []int — are written directly, as are nil and int64; a nil slice is
// null. Values of any other type, which no canonical Spec or expanded
// sweep holds, go through encoding/json.
func AppendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case bool:
		return strconv.AppendBool(dst, x), nil
	case string:
		return AppendString(dst, x), nil
	case int:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case int64:
		return strconv.AppendInt(dst, x, 10), nil
	case uint64:
		return strconv.AppendUint(dst, x, 10), nil
	case float64:
		return appendFloat(dst, x)
	case []float64:
		if x == nil {
			return append(dst, "null"...), nil
		}
		dst = append(dst, '[')
		for i, f := range x {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendFloat(dst, f); err != nil {
				return dst, err
			}
		}
		return append(dst, ']'), nil
	case []int:
		if x == nil {
			return append(dst, "null"...), nil
		}
		dst = append(dst, '[')
		for i, n := range x {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(n), 10)
		}
		return append(dst, ']'), nil
	}
	raw, err := json.Marshal(v)
	return append(dst, raw...), err
}

// appendSpec appends the canonical encoding of spec: json.Marshal's
// bytes for the same Spec.
func appendSpec(dst []byte, spec Spec) ([]byte, error) {
	dst = appendSpecHead(dst, spec.Experiment)
	dst, err := appendMachineField(dst, spec.Machine)
	if err != nil {
		return dst, err
	}
	if len(spec.Params) > 0 {
		names := make([]string, 0, len(spec.Params))
		for name := range spec.Params {
			names = append(names, name)
		}
		slices.Sort(names)
		dst = append(dst, `,"params":{`...)
		for i, name := range names {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendKey(dst, name)
			if dst, err = AppendValue(dst, spec.Params[name]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// appendSpecHead opens a Spec's encoding with its experiment field.
func appendSpecHead(dst []byte, experiment string) []byte {
	return AppendString(append(dst, `{"experiment":`...), experiment)
}

// appendKey appends a quoted object key and its colon.
func appendKey(dst []byte, key string) []byte {
	return append(AppendString(dst, key), ':')
}

// appendMachineField appends a Spec's machine field, which the zero
// machine omits.
func appendMachineField(dst []byte, m MachineSpec) ([]byte, error) {
	if m == (MachineSpec{}) {
		return dst, nil
	}
	// Each field present writes a leading comma; a non-zero machine has
	// at least one, and the first comma becomes the opening brace.
	dst = append(dst, `,"machine":`...)
	open := len(dst)
	if m.ParamSet != "" {
		dst = AppendString(append(dst, `,"param_set":`...), m.ParamSet)
	}
	if m.Tech != nil {
		var err error
		if dst, err = appendTech(append(dst, `,"tech":`...), m.Tech); err != nil {
			return dst, err
		}
	}
	if m.Level != 0 {
		dst = strconv.AppendInt(append(dst, `,"level":`...), int64(m.Level), 10)
	}
	if m.Bandwidth != 0 {
		dst = strconv.AppendInt(append(dst, `,"bandwidth":`...), int64(m.Bandwidth), 10)
	}
	if m.LogicalQubits != 0 {
		dst = strconv.AppendInt(append(dst, `,"logical_qubits":`...), int64(m.LogicalQubits), 10)
	}
	dst[open] = '{'
	return append(dst, '}'), nil
}

// appendTech appends a technology parameter set. iontrap.Params has no
// JSON tags, so its keys are its Go field names, in declaration order.
func appendTech(dst []byte, p *iontrap.Params) ([]byte, error) {
	dst = AppendString(append(dst, `{"Name":`...), p.Name)
	dst, err := AppendValue(append(dst, `,"Time":`...), p.Time[:])
	if err == nil {
		dst, err = AppendValue(append(dst, `,"Fail":`...), p.Fail[:])
	}
	if err == nil {
		dst, err = appendFloat(append(dst, `,"CellSizeUM":`...), p.CellSizeUM)
	}
	if err == nil {
		dst, err = appendFloat(append(dst, `,"MemoryLifetime":`...), p.MemoryLifetime)
	}
	return append(dst, '}'), err
}
