// Package lib is the settings guard's fixture.
package lib

import "time"

// Config is a settings struct: its name ends in Config.
type Config struct {
	// Named is in the table.
	Named int
	// Planted is not: the guard must flag it.
	Planted int
	// Hook is on the Plumbing line.
	Hook func()
	// Every is in the table as a field of a one-field row.
	Every time.Duration

	unexported int
}

// Options is covered because the guard is told to cover it.
type Options struct {
	Free string
}

// Scanner is neither, so its fields need no row.
type Scanner struct {
	Workers int
}

// New is named in the table with its parameters.
func New(addr string, n int) *Config { return &Config{Named: n, unexported: len(addr)} }
