// Package cmem implements the simulated C memory substrate that every other
// HEALERS component builds on: a sparse paged address space with
// per-page protection, a boundary-tag heap allocator with optional canaries,
// and a downward-growing stack with frame bookkeeping.
//
// The package stands in for the Unix process memory that the original
// HEALERS toolkit observed from the outside. Invalid accesses do not crash
// the Go runtime; they surface as typed *Fault values which the simulated
// process layer (internal/proc) converts into abnormal termination, exactly
// like a SIGSEGV would terminate a probe child in the paper's
// fault-injection experiments.
package cmem

import "fmt"

// FaultKind classifies a simulated hardware or runtime fault, mirroring the
// Unix signals the HEALERS injector observed on probe children.
type FaultKind int

const (
	// FaultNone is the zero FaultKind; a *Fault never carries it.
	FaultNone FaultKind = iota
	// FaultSegv reports an access to an unmapped address (SIGSEGV).
	FaultSegv
	// FaultBus reports a misaligned wide access (SIGBUS).
	FaultBus
	// FaultProt reports a write to read-only memory (SIGSEGV with
	// PROT_READ mapping; kept distinct for diagnosis).
	FaultProt
	// FaultAbort reports a deliberate abort: assertion failures, heap
	// corruption detected by the allocator, double free (SIGABRT).
	FaultAbort
	// FaultOverflow reports a canary violation detected by a security
	// check: a heap or stack buffer overflow has clobbered a guard zone.
	FaultOverflow
	// FaultFPE reports an integer division by zero (SIGFPE).
	FaultFPE
	// FaultOOM reports heap exhaustion where C would have returned NULL
	// but the simulated runtime was configured to trap instead.
	FaultOOM
	// FaultHang reports fuel exhaustion: the code performed more memory
	// accesses than the probe budget allows, the injector's stand-in
	// for "the probe child did not terminate within the timeout".
	FaultHang
)

// String returns the conventional signal-style name for the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "NONE"
	case FaultSegv:
		return "SIGSEGV"
	case FaultBus:
		return "SIGBUS"
	case FaultProt:
		return "SIGSEGV(prot)"
	case FaultAbort:
		return "SIGABRT"
	case FaultOverflow:
		return "OVERFLOW"
	case FaultFPE:
		return "SIGFPE"
	case FaultOOM:
		return "OOM"
	case FaultHang:
		return "HANG"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault describes one simulated fault. It implements error so substrate
// functions can return it through ordinary Go error plumbing.
type Fault struct {
	// Kind is the fault class (which signal would have fired).
	Kind FaultKind
	// Addr is the faulting address, if the fault concerns one.
	Addr Addr
	// Op is a short description of the operation that faulted, for
	// example "write8" or "free".
	Op string
	// Detail is free-form human context ("double free of 0x10000040").
	Detail string
}

var _ error = (*Fault)(nil)

// Error implements the error interface.
func (f *Fault) Error() string {
	if f.Detail != "" {
		return fmt.Sprintf("%s: %s at %s: %s", f.Kind, f.Op, f.Addr, f.Detail)
	}
	return fmt.Sprintf("%s: %s at %s", f.Kind, f.Op, f.Addr)
}

// segv builds a FaultSegv fault.
func segv(op string, a Addr, detail string) *Fault {
	return &Fault{Kind: FaultSegv, Addr: a, Op: op, Detail: detail}
}

// prot builds a FaultProt fault.
func prot(op string, a Addr, detail string) *Fault {
	return &Fault{Kind: FaultProt, Addr: a, Op: op, Detail: detail}
}

// abort builds a FaultAbort fault.
func abort(op string, a Addr, detail string) *Fault {
	return &Fault{Kind: FaultAbort, Addr: a, Op: op, Detail: detail}
}

// overflow builds a FaultOverflow fault.
func overflow(op string, a Addr, detail string) *Fault {
	return &Fault{Kind: FaultOverflow, Addr: a, Op: op, Detail: detail}
}
