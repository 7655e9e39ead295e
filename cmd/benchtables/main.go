// benchtables regenerates every table and quantitative result of the
// paper's evaluation section, and of the extensions built on it, from the
// simulation model: one section per experiment of the harness registry,
// printed beside the paper's published values.
//
// Usage:
//
//	benchtables                 # all tables
//	benchtables -table 2        # Table II only
//	benchtables -table loops    # §VII.A loop formulas
//	benchtables -table 3|4|latency|resources|policy|ablation|cluster|qos|...
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mccp/internal/harness"
	"mccp/internal/obs"
)

func main() {
	var tables []string
	for _, exp := range harness.Experiments {
		tables = append(tables, exp.Table)
	}
	table := flag.String("table", "all", "which table to regenerate: "+strings.Join(tables, ", ")+", all")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionLine("benchtables"))
		return
	}

	// The registry owns each experiment's table name, headline, table and
	// interpretation notes.
	any := false
	for _, exp := range harness.Experiments {
		if *table != "all" && *table != exp.Table {
			continue
		}
		any = true
		fmt.Printf("== %s: %s ==\n", exp.ID, exp.Title)
		fmt.Print(exp.Render())
		for _, note := range exp.Notes {
			fmt.Println(note)
		}
		fmt.Println()
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
		os.Exit(2)
	}
}
