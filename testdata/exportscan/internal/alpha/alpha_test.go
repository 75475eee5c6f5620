package alpha

import "testing"

func TestFixture(t *testing.T) {
	c := Config{Local: 3}
	c.defaults()
	if TestOnly() != 1 || c.Local != 4 {
		t.Fail()
	}
}
