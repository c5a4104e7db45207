package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	lib.Shipped()
	fmt.Println(lib.Label(1))
}
