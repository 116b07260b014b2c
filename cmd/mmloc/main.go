// Command mmloc reproduces the paper's Fig. 4 code-volume comparison:
// cloc-style line counts of each application's MegaMmap implementation
// versus its baseline implementation.
//
// With -unlinked it instead lists the funcs declared under internal/ that
// no main of the module links, each with its allow-list reason, and exits
// 1 when one is not on the allow-list (cmd/mmloc/unlinked.txt) or a listed
// one is linked or gone. Run it from inside the module.
package main

import (
	"flag"
	"fmt"
	"os"

	"megammap/internal/experiments"
)

func main() {
	unlinkedFlag := flag.Bool("unlinked", false, "list the funcs under internal/ that no main links; exit 1 on any not allow-listed")
	flag.Parse()
	if *unlinkedFlag {
		ok, err := unlinked()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mmloc:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	tb, err := experiments.Fig4()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmloc:", err)
		os.Exit(1)
	}
	fmt.Print(tb.String())
	fmt.Println("\nmegammap_loc vs baseline_loc counts the variant-specific driver code;")
	fmt.Println("shared_loc is algorithm logic both variants reuse verbatim (the paper's")
	fmt.Println("originals duplicate it per implementation).")
}
