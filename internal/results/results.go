// Package results provides the small, dependency-free result sink the
// experiment harness writes through: an escaping CSV writer with a
// fixed header discipline, so sweeps can be piped straight into
// plotting tools. Output is deterministic: column order is fixed at
// construction.
package results

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CSV writes rows under a fixed header. It escapes per RFC 4180
// (quotes around fields containing commas, quotes or newlines; embedded
// quotes doubled).
type CSV struct {
	w      io.Writer
	cols   []string
	failed error
}

// NewCSV writes the header immediately. At least one column is
// required; column names must be unique.
func NewCSV(w io.Writer, columns ...string) (*CSV, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("results: CSV needs at least one column")
	}
	seen := map[string]bool{}
	for _, c := range columns {
		if seen[c] {
			return nil, fmt.Errorf("results: duplicate column %q", c)
		}
		seen[c] = true
	}
	c := &CSV{w: w, cols: append([]string(nil), columns...)}
	if err := c.writeRecord(c.cols); err != nil {
		return nil, err
	}
	return c, nil
}

// Row writes one record; the value count must match the header.
// Supported types: string, bool, integers, floats, fmt.Stringer.
func (c *CSV) Row(values ...any) error {
	if c.failed != nil {
		return c.failed
	}
	if len(values) != len(c.cols) {
		return fmt.Errorf("results: row has %d values, header has %d", len(values), len(c.cols))
	}
	fields := make([]string, len(values))
	for i, v := range values {
		fields[i] = format(v)
	}
	c.failed = c.writeRecord(fields)
	return c.failed
}

func (c *CSV) writeRecord(fields []string) error {
	for i, f := range fields {
		fields[i] = escape(f)
	}
	_, err := io.WriteString(c.w, strings.Join(fields, ",")+"\n")
	return err
}

func escape(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

func format(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', 6, 64)
	case float32:
		return strconv.FormatFloat(float64(x), 'g', 6, 32)
	case fmt.Stringer:
		return x.String()
	default:
		return fmt.Sprintf("%v", v)
	}
}
