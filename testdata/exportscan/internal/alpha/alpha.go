// Package alpha is the export scan's fixture: one exported name of
// each kind the scan must tell apart.
package alpha

// Dead is used by nothing.
func Dead() {}

// TestOnly is used only by alpha_test.go.
func TestOnly() int { return 1 }

// Shared is used by package beta.
func Shared() int { return 2 }

// Config has one field set only inside this package and one set from
// cmd/.
type Config struct {
	Local  int
	Remote int
}

func (c *Config) defaults() {
	c.Local = 4
}
