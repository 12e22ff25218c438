package cmem

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
)

// Write journal: the undo log behind the containment wrapper's rollback.
//
// A containment micro-generator arms the journal just before invoking the
// wrapped function; every byte store through the Space records its
// pre-image. If the call faults mid-write (strcpy walked off the end of a
// mapping after copying half the string), the wrapper rolls the journal
// back, restoring every clobbered byte, before virtualizing the fault
// into an errno return — the caller observes a failed call, not a
// half-smashed buffer. A completed call commits, which simply discards
// the log.
//
// Scope: the journal covers memory *content* only. Mappings created
// during the journalled call (heap arena growth) and the allocator's
// Go-side chunk list are not rewound — a contained malloc can leak its
// chunk, which is a bounded leak, not corruption (see DESIGN.md §7).

// journalEntry is one byte's pre-image.
type journalEntry struct {
	addr Addr
	old  byte
}

// BeginJournal arms the write journal. Journals nest: each Begin pushes a
// mark, and Commit/Rollback pop back to the matching mark, so a retried
// call can re-arm without disturbing an outer journal.
func (s *Space) BeginJournal() {
	s.journalMarks = append(s.journalMarks, len(s.journal))
	s.journalArmed = true
}

// JournalActive reports whether at least one journal is armed.
func (s *Space) JournalActive() bool { return s.journalArmed }

// JournalLen returns the number of recorded pre-images (all nesting
// levels), for tests and diagnostics.
func (s *Space) JournalLen() int { return len(s.journal) }

// popJournal removes the innermost journal mark and returns the entries
// recorded since it. With no armed journal it returns nil.
func (s *Space) popJournal() []journalEntry {
	if len(s.journalMarks) == 0 {
		return nil
	}
	mark := s.journalMarks[len(s.journalMarks)-1]
	s.journalMarks = s.journalMarks[:len(s.journalMarks)-1]
	entries := s.journal[mark:]
	s.journal = s.journal[:mark]
	if len(s.journalMarks) == 0 {
		s.journalArmed = false
	}
	return entries
}

// CommitJournal settles the innermost journal: the call completed, its
// writes stand. When an outer journal is still armed the committed
// entries are retained as part of it — an outer rollback (or diff) must
// still cover the inner call's writes, otherwise a contained inner call
// would punch a hole in the outer undo log. Only the last commit
// discards the log.
func (s *Space) CommitJournal() {
	if len(s.journalMarks) == 0 {
		return
	}
	s.journalMarks = s.journalMarks[:len(s.journalMarks)-1]
	if len(s.journalMarks) == 0 {
		s.journal = s.journal[:0]
		s.journalArmed = false
	}
}

// RollbackJournal restores the pre-image of every byte written since the
// innermost BeginJournal, newest first, and disarms that journal level.
// Restoration bypasses protection and fuel: the page was writable when
// the store went through, and undo must not itself fault or hang.
// Restoring a byte of a uniform page to a value other than its fill
// allocates the page's data.
func (s *Space) RollbackJournal() {
	entries := s.popJournal()
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		pg := s.pageOf(e.addr)
		if pg == nil {
			continue // page unmapped since the write; nothing to restore
		}
		if pg.data == nil {
			if e.old == pg.fill {
				continue // the page already reads as the pre-image
			}
			pg = s.own(e.addr)
			pg.materialize()
		}
		pg.data[e.addr&pageMask] = e.old
	}
}

// journalWrite records a byte's pre-image before it is overwritten. The
// caller has already located the page and verified writability.
func (s *Space) journalWrite(pg *page, a Addr) {
	s.journal = append(s.journal, journalEntry{addr: a, old: pg.at(uint32(a) & pageMask)})
}

// JournalDiffEntry is one byte whose committed value differs from its
// pre-image: the net state change a journalled window left behind.
type JournalDiffEntry struct {
	Addr Addr
	Old  byte // pre-image when the byte was first journalled in the window
	New  byte // current value in the space
}

// JournalDiff computes the net state change of the innermost armed
// journal window: every byte whose current value differs from the first
// pre-image recorded for it since the matching BeginJournal. Bytes
// rewritten back to their pre-image (or on pages unmapped since) are
// omitted, so a rolled-back window diffs empty. The journal stays armed
// — this is a read-only peek — and the result is sorted by address, so
// two runs with identical net writes produce identical diffs.
func (s *Space) JournalDiff() []JournalDiffEntry {
	if len(s.journalMarks) == 0 {
		return nil
	}
	// A stable sort by address keeps each address's entries in journal
	// order, so the first of a run holds the window's first pre-image.
	window := slices.Clone(s.journal[s.journalMarks[len(s.journalMarks)-1]:])
	slices.SortStableFunc(window, func(a, b journalEntry) int { return cmp.Compare(a.addr, b.addr) })
	diff := []JournalDiffEntry{}
	for i, e := range window {
		if i > 0 && window[i-1].addr == e.addr {
			continue
		}
		pg := s.pageOf(e.addr)
		if pg == nil {
			continue
		}
		if cur := pg.at(uint32(e.addr) & pageMask); cur != e.old {
			diff = append(diff, JournalDiffEntry{Addr: e.addr, Old: e.old, New: cur})
		}
	}
	return diff
}

// JournalDiffDigest folds JournalDiff into a sha256 hex digest over the
// sorted (address, new value) pairs. Two processes that committed the
// same net state change report the same digest, so a faulted run can be
// compared against a golden run without shipping either diff.
func (s *Space) JournalDiffDigest() string {
	h := sha256.New()
	var buf [9]byte
	for _, e := range s.JournalDiff() {
		binary.LittleEndian.PutUint64(buf[:8], uint64(e.Addr))
		buf[8] = e.New
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CorruptJournaledByte flips one byte the current journal window has
// touched — the silent-corruption injector. It prefers a *durable* byte
// (data segment or heap, below HeapLimit) over transient stack slots,
// scanning newest-first so the corruption lands in state the victim just
// committed. The flip goes through the journal itself, so JournalDiff
// observes it and RollbackJournal undoes it. Returns the corrupted
// address, or false when no armed journal window has a usable entry.
func (s *Space) CorruptJournaledByte() (Addr, bool) {
	if len(s.journalMarks) == 0 {
		return 0, false
	}
	mark := s.journalMarks[len(s.journalMarks)-1]
	window := s.journal[mark:]
	pick := func(durableOnly bool) (Addr, bool) {
		for i := len(window) - 1; i >= 0; i-- {
			a := window[i].addr
			if durableOnly && a >= HeapLimit {
				continue
			}
			if s.pageOf(a) == nil {
				continue
			}
			return a, true
		}
		return 0, false
	}
	a, ok := pick(true)
	if !ok {
		a, ok = pick(false)
	}
	if !ok {
		return 0, false
	}
	pg := s.own(a)
	pg.materialize()
	s.journalWrite(pg, a)
	pg.data[a&pageMask] ^= 0xff
	return a, true
}
