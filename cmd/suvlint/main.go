// Command suvlint runs the repo's static-analysis suite (detmap,
// wallclock, hotalloc, exhaustive, stalesuppress — see
// internal/analysis).
//
// It speaks two protocols:
//
//   - Invoked with package patterns, it re-executes itself under
//     "go vet -vettool", which handles package loading, caching and
//     modular fact propagation:
//
//     go run ./cmd/suvlint ./...
//     go run ./cmd/suvlint -json ./...   # machine-readable findings
//
//   - Invoked by the go command (with -V=full, -flags, or a *.cfg
//     compilation-unit file), it acts as a unitchecker-based vet tool,
//     so "go vet -vettool=$(which suvlint) ./..." also works.
//
// Exit status is that of go vet: non-zero iff findings were reported
// (in -json mode go vet exits 0 and findings go to stdout as JSON,
// keyed by package then analyzer, for CI annotation tooling).
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"suvtm/internal/analysis"
)

func main() {
	args := os.Args[1:]
	if vetToolInvocation(args) {
		unitchecker.Main(analysis.Analyzers()...) // never returns
	}

	jsonOut := false
	var patterns []string
	for _, a := range args {
		switch a {
		case "-json", "--json":
			jsonOut = true
		case "-h", "-help", "--help":
			usage()
			return
		default:
			if strings.HasPrefix(a, "-") {
				fmt.Fprintf(os.Stderr, "suvlint: unknown flag %s\n", a)
				usage()
				os.Exit(2)
			}
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "suvlint: cannot locate own executable: %v\n", err)
		os.Exit(2)
	}
	vetArgs := []string{"vet", "-vettool=" + self}
	if jsonOut {
		vetArgs = append(vetArgs, "-json")
	}
	vetArgs = append(vetArgs, patterns...)
	cmd := exec.Command("go", vetArgs...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "suvlint: %v\n", err)
		os.Exit(2)
	}
}

// vetToolInvocation reports whether the go command is driving us as a
// vet tool: it passes -V=full to fingerprint the tool, -flags to list
// analyzer flags, and a JSON *.cfg file per compilation unit.
func vetToolInvocation(args []string) bool {
	for _, a := range args {
		if strings.HasPrefix(a, "-V") || a == "-flags" || strings.HasSuffix(a, ".cfg") {
			return true
		}
	}
	return false
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: suvlint [-json] [packages]

Runs the suvtm static-analysis suite (detmap, wallclock, hotalloc,
exhaustive, stalesuppress) over the given package patterns (default
./...) by re-executing itself under "go vet -vettool".
`)
}
