// Command tool sets alpha.Config.Remote from cmd/.
package main

import (
	"fmt"

	"example.com/exportscan/internal/alpha"
	"example.com/exportscan/internal/beta"
)

func main() {
	fmt.Println(alpha.Config{Remote: beta.Use()})
}
