package workload

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/model"
)

// The appenders below write exactly the bytes json.Marshal writes for the
// same values, so a hand-written MarshalJSON built from them is one
// append pass: no reflection, and, when its caller invokes it directly
// instead of through json.Marshal, no second scan to compact and
// re-escape the output. The package documentation lists the rules.

// AppendKey appends an object member's key and colon, preceded by the
// comma that separates it from the member before it: none when dst ends
// with the object's opening brace. key must be plain ASCII that needs no
// escape, as every wire key is.
func AppendKey(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, key...)
	return append(dst, '"', ':')
}

// AppendString appends s as json.Marshal writes a string. Printable ASCII
// that needs no escape is copied between quotes; any other string goes
// through json.Marshal, so its escaping of quotes, backslashes, control
// bytes, <, > and &, invalid UTF-8 and U+2028/U+2029 stays encoding/json's.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendFloat appends f as json.Marshal writes a float64: the shortest
// representation that round-trips, in 'f' format unless its magnitude is
// below 1e-6 or at least 1e21, where it takes 'e' format with a
// one-digit negative exponent written without its leading zero (1e-7, not
// 1e-07). A NaN or infinity returns json.Marshal's
// *json.UnsupportedValueError and dst unchanged, never invalid JSON.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		_, err := json.Marshal(f)
		return dst, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// AppendInts appends an int slice as json.Marshal writes it: null when
// nil, [] when empty.
func AppendInts(dst []byte, vs []int) []byte {
	if vs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// appendTasks appends a sporadic task set as json.Marshal writes it: null
// when nil, and each task as model.Task's struct tags lay it out.
func appendTasks(dst []byte, ts model.TaskSet) []byte {
	if ts == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range ts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendTaskFields(append(dst, '{'), &ts[i])
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendPartTasks appends a partitioned task set as json.Marshal writes
// it: the embedded task's members, then a non-empty affinity.
func appendPartTasks(dst []byte, ts []PartitionedTask) []byte {
	if ts == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range ts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendTaskFields(append(dst, '{'), &ts[i].Task)
		if len(ts[i].Affinity) > 0 {
			dst = AppendInts(AppendKey(dst, "affinity"), ts[i].Affinity)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// AppendProcessors appends a processor set as json.Marshal writes it; an
// unnamed processor of default speed is {}.
func AppendProcessors(dst []byte, ps []Processor) []byte {
	if ps == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, p := range ps {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '{')
		if p.Name != "" {
			dst = AppendString(AppendKey(dst, "name"), p.Name)
		}
		if p.Speed != 0 {
			dst = strconv.AppendInt(AppendKey(dst, "speed"), p.Speed, 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendTaskFields appends the members of a model.Task, omitting the
// omitempty ones that are zero. dst ends with the object's opening brace.
func appendTaskFields(dst []byte, t *model.Task) []byte {
	if t.Name != "" {
		dst = append(AppendString(append(dst, `"name":`...), t.Name), ',')
	}
	dst = strconv.AppendInt(append(dst, `"wcet":`...), t.WCET, 10)
	dst = strconv.AppendInt(append(dst, `,"deadline":`...), t.Deadline, 10)
	dst = strconv.AppendInt(append(dst, `,"period":`...), t.Period, 10)
	if t.Phase != 0 {
		dst = strconv.AppendInt(append(dst, `,"phase":`...), t.Phase, 10)
	}
	if t.CriticalSection != 0 {
		dst = strconv.AppendInt(append(dst, `,"critical_section":`...), t.CriticalSection, 10)
	}
	if t.SelfSuspension != 0 {
		dst = strconv.AppendInt(append(dst, `,"self_suspension":`...), t.SelfSuspension, 10)
	}
	return dst
}

// AppendTasks appends the workload's task array under its model, the
// value a request flattens next to the model key: json.Marshal's bytes
// for the event tasks, the hand-encoded array otherwise.
func (w Workload) AppendTasks(dst []byte) []byte {
	switch w.Kind() {
	case Events:
		b, _ := json.Marshal(w.Events) // strings and int64s always encode
		return append(dst, b...)
	case Partitioned:
		return appendPartTasks(dst, w.PartTasks)
	}
	return appendTasks(dst, w.Tasks)
}

// EncodedSizeHint estimates the encoded size of the workload's task and
// processor arrays, so an encoder can size its buffer once: 56 bytes
// hold a task whose three int64 fields have seven digits each.
func (w Workload) EncodedSizeHint() int {
	return 16 + 56*w.Len() + 24*len(w.Processors)
}
