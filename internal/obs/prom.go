package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// MetricType is a Prometheus exposition metric type.
type MetricType string

// The metric types the service emits.
const (
	Counter   MetricType = "counter"
	Gauge     MetricType = "gauge"
	Histogram MetricType = "histogram"
	Untyped   MetricType = "untyped"
)

// Label is one name="value" pair of a sample.
type Label struct {
	Name  string
	Value string
}

// ExpositionWriter renders metric families in Prometheus text exposition
// format: a # HELP / # TYPE header per family, then that family's
// samples, labels escaped per the spec. Errors stick; check Err once at
// the end instead of after every line.
type ExpositionWriter struct {
	w   io.Writer
	err error
}

// NewExpositionWriter wraps w.
func NewExpositionWriter(w io.Writer) *ExpositionWriter {
	return &ExpositionWriter{w: w}
}

// Err returns the first write error.
func (e *ExpositionWriter) Err() error { return e.err }

func (e *ExpositionWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// Family opens a metric family: its HELP and TYPE header lines. Samples
// of the family must follow before the next Family call.
func (e *ExpositionWriter) Family(name string, typ MetricType, help string) {
	e.printf("# HELP %s %s\n", name, escapeHelp(help))
	e.printf("# TYPE %s %s\n", name, typ)
}

// Sample writes one sample line. Counters and integral gauges render
// without a fraction; other values use the shortest float form.
func (e *ExpositionWriter) Sample(name string, labels []Label, value float64) {
	e.SampleString(name, labels, FormatValue(value))
}

// SampleString writes one sample line with a preformatted value, for
// callers that fix the rendering (e.g. a ratio always shown as %.4f).
func (e *ExpositionWriter) SampleString(name string, labels []Label, value string) {
	if len(labels) == 0 {
		e.printf("%s %s\n", name, value)
		return
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	e.printf("%s %s\n", sb.String(), value)
}

// Counter writes a counter family of one unlabeled sample.
func (e *ExpositionWriter) Counter(name, help string, v uint64) {
	e.Family(name, Counter, help)
	e.Sample(name, nil, float64(v))
}

// Gauge writes a gauge family of one unlabeled sample.
func (e *ExpositionWriter) Gauge(name, help string, v float64) {
	e.Family(name, Gauge, help)
	e.Sample(name, nil, v)
}

// Bucket is one cumulative histogram bucket: Count samples were at most
// LE.
type Bucket struct {
	LE    float64
	Count float64
}

// Quantile returns the upper bound of the bucket holding the sample of
// nearest rank ⌈q·n⌉, where n is the count of the last bucket and the
// buckets ascend by LE. Cumulative counts sum across replicas, so this is
// the same conservative estimate for one edfd's histogram and for a
// fleet's summed one. No samples yield zero.
func Quantile(bs []Bucket, q float64) float64 {
	if len(bs) == 0 || bs[len(bs)-1].Count <= 0 {
		return 0
	}
	rank := max(math.Ceil(q*bs[len(bs)-1].Count), 1)
	for _, b := range bs {
		if b.Count >= rank {
			return b.LE
		}
	}
	return bs[len(bs)-1].LE
}

// Quantiles writes the name_p50 and name_p99 gauges of histogram family
// name, derived from its cumulative buckets; what completes their help
// text ("Median <what>."). No buckets write nothing.
func (e *ExpositionWriter) Quantiles(name, what string, bs []Bucket) {
	if len(bs) == 0 {
		return
	}
	e.Gauge(name+"_p50", "Median "+what+".", Quantile(bs, 0.50))
	e.Gauge(name+"_p99", "99th-percentile "+what+".", Quantile(bs, 0.99))
}

// FormatValue renders a float the way the exposition format expects:
// integral values without a fraction, everything else shortest-form.
func FormatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes backslashes, double quotes and newlines in a label
// value.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Sample is one parsed exposition line.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Key returns the sample's canonical identity — name plus sorted labels —
// used for summing the same series across replicas and for duplicate
// detection.
func (s Sample) Key() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	ls := append([]Label(nil), s.Labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var sb strings.Builder
	sb.WriteString(s.Name)
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// Label returns the value of the named label ("" when absent).
func (s Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// ParseExposition parses a Prometheus text page into samples, failing on
// the first malformed line. Comment lines (HELP/TYPE included) are
// syntax-checked and skipped; ValidateExposition adds the cross-line
// family rules.
func ParseExposition(r io.Reader) ([]Sample, error) {
	out, _, err := ParseExpositionTyped(r)
	return out, err
}

// ParseExpositionTyped parses a page into samples plus the TYPE
// declarations, keyed by family name — what an aggregator needs to
// re-emit a scraped page with the original types.
func ParseExpositionTyped(r io.Reader) ([]Sample, map[string]MetricType, error) {
	var out []Sample
	types := map[string]MetricType{}
	err := scanExposition(r, func(s Sample) error {
		out = append(out, s)
		return nil
	}, func(directive, name, rest string) error {
		if directive == "TYPE" {
			types[name] = MetricType(rest)
		}
		return nil
	})
	return out, types, err
}

// ValidateExposition checks a page against the text-format rules a
// Prometheus scraper enforces: every line parses, TYPE lines are valid
// and precede their samples, all samples of one family are contiguous,
// series are not duplicated, and histogram families carry le-labeled
// buckets with a +Inf bucket equal to their _count.
func ValidateExposition(r io.Reader) error {
	types := map[string]MetricType{} // family -> declared type
	closed := map[string]bool{}      // families whose sample block ended
	seen := map[string]bool{}        // series keys, for duplicate detection
	hist := map[string]*histCheck{}  // histogram family -> bucket audit
	current := ""                    // family currently emitting samples
	startFamily := func(fam string) error {
		if fam == current {
			return nil
		}
		if current != "" {
			closed[current] = true
		}
		if closed[fam] {
			return fmt.Errorf("family %s interleaved with other families", fam)
		}
		current = fam
		return nil
	}
	err := scanExposition(r, func(s Sample) error {
		fam := s.Name
		if t, ok := types[fam]; !ok || t != Histogram {
			// _bucket/_sum/_count samples belong to a declared histogram
			// family when one exists.
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(s.Name, suffix)
				if base != s.Name && types[base] == Histogram {
					fam = base
					break
				}
			}
		}
		if err := startFamily(fam); err != nil {
			return err
		}
		key := s.Key()
		if seen[key] {
			return fmt.Errorf("duplicate series %s", key)
		}
		seen[key] = true
		if types[fam] == Histogram {
			h := hist[fam]
			if h == nil {
				h = &histCheck{}
				hist[fam] = h
			}
			return h.observe(fam, s)
		}
		return nil
	}, func(directive, name, rest string) error {
		switch directive {
		case "TYPE":
			switch MetricType(rest) {
			case Counter, Gauge, Histogram, Untyped, "summary":
			default:
				return fmt.Errorf("unknown TYPE %q for %s", rest, name)
			}
			if _, dup := types[name]; dup {
				return fmt.Errorf("second TYPE line for %s", name)
			}
			if closed[name] || current == name {
				return fmt.Errorf("TYPE for %s after its samples", name)
			}
			types[name] = MetricType(rest)
		case "HELP":
			// Free text; nothing further to check.
		}
		return nil
	})
	if err != nil {
		return err
	}
	for fam, h := range hist {
		if err := h.finish(fam); err != nil {
			return err
		}
	}
	return nil
}

// histCheck audits one histogram family's bucket/count consistency.
// Labeled variants of the family (e.g. per-replica series) are audited
// independently per label signature.
type histCheck struct {
	inf   map[string]float64 // non-le label signature -> +Inf bucket value
	count map[string]float64 // non-le label signature -> _count value
}

// sig is the sample's identity aside from le: its other labels.
func (h *histCheck) sig(s Sample) string {
	rest := Sample{Name: "x"}
	for _, l := range s.Labels {
		if l.Name != "le" {
			rest.Labels = append(rest.Labels, l)
		}
	}
	return rest.Key()
}

func (h *histCheck) observe(fam string, s Sample) error {
	if h.inf == nil {
		h.inf = map[string]float64{}
		h.count = map[string]float64{}
	}
	switch s.Name {
	case fam + "_bucket":
		le := s.Label("le")
		if le == "" {
			return fmt.Errorf("%s_bucket without le label", fam)
		}
		if _, err := strconv.ParseFloat(le, 64); err != nil {
			return fmt.Errorf("%s_bucket le=%q is not a number", fam, le)
		}
		if le == "+Inf" {
			h.inf[h.sig(s)] = s.Value
		}
	case fam + "_count":
		h.count[h.sig(s)] = s.Value
	}
	return nil
}

func (h *histCheck) finish(fam string) error {
	for sig, count := range h.count {
		inf, ok := h.inf[sig]
		if !ok {
			return fmt.Errorf("histogram %s missing a +Inf bucket", fam)
		}
		if inf != count {
			return fmt.Errorf("histogram %s: +Inf bucket %v != count %v", fam, inf, count)
		}
	}
	return nil
}

// scanExposition drives line-level parsing, invoking sample for metric
// lines and comment (may be nil) for HELP/TYPE lines.
func scanExposition(r io.Reader, sample func(Sample) error, comment func(directive, name, rest string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			directive, name, rest, ok := parseComment(line)
			if !ok {
				continue // free-form comment
			}
			if directive == "" {
				return fmt.Errorf("line %d: malformed %q", lineNo, line)
			}
			if comment != nil {
				if err := comment(directive, name, rest); err != nil {
					return fmt.Errorf("line %d: %w", lineNo, err)
				}
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if err := sample(s); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	return sc.Err()
}

// parseComment splits "# HELP name text" / "# TYPE name type". ok is
// false for free-form comments; a recognized directive with a malformed
// body returns ok with an empty directive so the caller can reject it.
func parseComment(line string) (directive, name, rest string, ok bool) {
	body := strings.TrimPrefix(line, "#")
	body = strings.TrimLeft(body, " ")
	d, tail, found := strings.Cut(body, " ")
	if !found || (d != "HELP" && d != "TYPE") {
		return "", "", "", false
	}
	n, r, found := strings.Cut(tail, " ")
	if d == "TYPE" && !found {
		return "", "", "", true
	}
	if !validName(n, false) {
		return "", "", "", true
	}
	return d, n, r, true
}

// parseSampleLine parses "name[{labels}] value [timestamp]".
func parseSampleLine(line string) (Sample, error) {
	var s Sample
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	s.Name = line[:i]
	if !validName(s.Name, false) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		var err error
		if s.Labels, rest, err = parseLabels(rest[1:]); err != nil {
			return s, err
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("want value [timestamp] after %q, got %q", s.Name, rest)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("invalid value %q: %w", fields[0], err)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("invalid timestamp %q", fields[1])
		}
	}
	return s, nil
}

// parseLabels consumes label pairs up to the closing brace, returning the
// remainder of the line.
func parseLabels(in string) ([]Label, string, error) {
	var out []Label
	for {
		in = strings.TrimLeft(in, " ")
		if strings.HasPrefix(in, "}") {
			return out, in[1:], nil
		}
		eq := strings.IndexByte(in, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '=' in %q", in)
		}
		name := strings.TrimSpace(in[:eq])
		if !validName(name, true) {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		in = strings.TrimLeft(in[eq+1:], " ")
		if !strings.HasPrefix(in, `"`) {
			return nil, "", fmt.Errorf("unquoted value for label %s", name)
		}
		value, rest, err := parseQuoted(in[1:])
		if err != nil {
			return nil, "", fmt.Errorf("label %s: %w", name, err)
		}
		out = append(out, Label{Name: name, Value: value})
		in = strings.TrimLeft(rest, " ")
		if strings.HasPrefix(in, ",") {
			in = in[1:]
			continue
		}
		if !strings.HasPrefix(in, "}") {
			return nil, "", fmt.Errorf("expected ',' or '}' after label %s", name)
		}
	}
}

// parseQuoted consumes an escaped label value up to the closing quote.
func parseQuoted(in string) (value, rest string, err error) {
	var sb strings.Builder
	for i := 0; i < len(in); i++ {
		switch c := in[i]; c {
		case '"':
			return sb.String(), in[i+1:], nil
		case '\\':
			i++
			if i >= len(in) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch in[i] {
			case '\\':
				sb.WriteByte('\\')
			case '"':
				sb.WriteByte('"')
			case 'n':
				sb.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c", in[i])
			}
		default:
			sb.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

// validName checks a metric (or, with label set, label) name against the
// exposition grammar.
func validName(s string, label bool) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case !label && c == ':':
		case i > 0 && c >= '0' && c <= '9':
		default:
			return false
		}
	}
	return true
}
