// Command healers-gen shows the flexible wrapper generation of §2.3: it
// renders the C-like source of a generated wrapper for any library
// function, composed from micro-generators — the paper's Figure 3 output.
//
// Usage:
//
//	healers-gen wctrans                       # profiling wrapper (Fig. 3)
//	healers-gen -type security strcpy         # security wrapper source
//	healers-gen -type robustness -derive strcpy  # derive the robust API first
//	healers-gen -type containment strcpy      # fault-containment wrapper
//	healers-gen -type containment -policy recovery.xml strcpy
//	healers-gen -stamp-policy recovery.xml > recovery-v2.xml   # version for hot-reload
package main

import (
	"flag"
	"fmt"
	"os"

	"healers"
	"healers/internal/ctypes"
	"healers/internal/wrappers"
	"healers/internal/xmlrep"
)

func main() {
	kind := flag.String("type", "profiling", "wrapper type: robustness, security, profiling, or containment")
	derive := flag.Bool("derive", false, "run a fault-injection campaign to derive the robust API (robustness type only)")
	lib := flag.String("lib", healers.Libc, "library the function belongs to")
	policy := flag.String("policy", "", "recovery-policy XML file validated alongside a containment wrapper")
	stampPolicy := flag.String("stamp-policy", "", "validate a policy file, stamp revision+checksum, print to stdout, and exit")
	revision := flag.Int("policy-revision", 0, "revision for -stamp-policy (0 = current revision + 1)")
	flag.Parse()
	if *stampPolicy != "" {
		if err := runStamp(*stampPolicy, *revision); err != nil {
			fmt.Fprintln(os.Stderr, "healers-gen:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: healers-gen [-type T] [-derive] [-policy FILE] <function>")
		os.Exit(2)
	}
	if err := run(*kind, *lib, flag.Arg(0), *derive, *policy); err != nil {
		fmt.Fprintln(os.Stderr, "healers-gen:", err)
		os.Exit(1)
	}
}

// runStamp is the operator tooling for hand-written policies: validate
// the rules, stamp revision and checksum, and print the hot-reloadable
// document. The stamped output goes to stdout so the input file is
// never half-rewritten.
func runStamp(path string, revision int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	doc, err := xmlrep.Unmarshal[xmlrep.PolicyDoc](data)
	if err != nil {
		return err
	}
	if revision <= 0 {
		revision = doc.Revision + 1
	}
	doc.Stamp(revision)
	if err := doc.Validate(); err != nil {
		return fmt.Errorf("policy %s: %w", path, err)
	}
	out, err := xmlrep.Marshal(doc)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "healers-gen: %s stamped as revision %d\n", path, revision)
	_, err = os.Stdout.Write(out)
	return err
}

func run(kind, lib, fn string, derive bool, policyFile string) error {
	tk, err := healers.NewToolkit()
	if err != nil {
		return err
	}
	// A policy file is parsed and validated up front, so a bad rule set
	// fails generation instead of surfacing at the first contained fault.
	if policyFile != "" {
		data, err := os.ReadFile(policyFile)
		if err != nil {
			return err
		}
		if _, err := tk.LoadPolicyXML(data); err != nil {
			return fmt.Errorf("policy %s: %w", policyFile, err)
		}
		fmt.Printf("/* recovery policy %s validated */\n", policyFile)
	}
	var api healers.RobustAPI
	if kind == "robustness" {
		if derive {
			fr, err := tk.InjectFunction(lib, fn)
			if err != nil {
				return err
			}
			api = (&healers.LibReport{Funcs: []*healers.FuncReport{fr}}).RobustAPI()
			fmt.Printf("/* robust API derived by fault injection: %v */\n", fr.RobustLevelNames())
		} else {
			scan, err := tk.ScanLibrary(lib)
			if err != nil {
				return err
			}
			proto := scan.Protos[fn]
			if proto == nil {
				return fmt.Errorf("no prototype for %q in %s", fn, lib)
			}
			api = wrappers.StrongestAPI([]*ctypes.Prototype{proto})
			fmt.Println("/* robust API assumed strongest (use -derive for the measured one) */")
		}
	}
	src, err := tk.WrapperSource(kind, lib, fn, api)
	if err != nil {
		return err
	}
	fmt.Print(src)
	return nil
}
