// Package beta uses alpha.Shared from production code.
package beta

import "example.com/exportscan/internal/alpha"

// Use is called from cmd/tool.
func Use() int { return alpha.Shared() }
