// Command fixture reaches lib.Used directly and T.Name through Namer.
package main

import (
	"fmt"

	"example.com/fixture/internal/lib"
)

func main() {
	var n lib.Namer = lib.T{}
	fmt.Println(lib.Used(), n.Name())
}
