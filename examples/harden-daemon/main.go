// Harden-daemon reproduces the paper's §3.4 demonstration as a library
// consumer would script it: the vulnerable root daemon rootd is attacked
// with a heap-smashing packet, first undefended (the attacker gets a root
// shell) and then with the generated security wrapper preloaded (the
// overflow is detected and the process terminated).
package main

import (
	"fmt"
	"log"

	"healers"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tk, err := healers.NewToolkit()
	if err != nil {
		return err
	}
	if err := tk.InstallSampleApps(); err != nil {
		return err
	}

	// What does the daemon link against? (the Fig. 4 scan)
	scan, err := tk.ScanApplication(healers.Rootd)
	if err != nil {
		return err
	}
	fmt.Print(healers.RenderAppScan(scan))
	fmt.Println()

	// Generate the security wrapper for exactly the functions the
	// daemon imports — "an application should only pay the overhead for
	// the protection it actually needs".
	if _, err := tk.GenerateSecurityWrapper(healers.Libc, scan.Undefined); err != nil {
		return err
	}
	fmt.Printf("generated %s wrapping only %v\n\n", healers.SecurityWrapper, scan.Undefined)

	attack := string(healers.ExploitPacket())

	res, err := tk.Run(healers.Rootd, nil, attack)
	if err != nil {
		return err
	}
	fmt.Printf("undefended run: %s\n  stdout: %q\n", res, res.Stdout)

	res, err = tk.Run(healers.Rootd, []string{healers.SecurityWrapper}, attack)
	if err != nil {
		return err
	}
	fmt.Printf("defended run:   %s\n", res)

	st, _ := tk.WrapperState(healers.SecurityWrapper)
	fmt.Printf("\nwrapper statistics: %d calls intercepted, %d overflow(s) stopped\n",
		st.TotalCalls(), st.Overflows)

	// Legitimate traffic is unaffected.
	res, err = tk.Run(healers.Rootd, []string{healers.SecurityWrapper}, string(healers.BenignPacket("GET /status")))
	if err != nil {
		return err
	}
	fmt.Printf("benign request under the wrapper: %s — %q\n", res, res.Stdout)
	return nil
}
