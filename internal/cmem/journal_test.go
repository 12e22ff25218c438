package cmem

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestJournalRollbackRestoresPreImages(t *testing.T) {
	sp := NewSpace()
	if f := sp.Map(0x1000, PageSize, ProtRW); f != nil {
		t.Fatal(f)
	}
	if f := sp.Write(0x1000, []byte("before")); f != nil {
		t.Fatal(f)
	}

	sp.BeginJournal()
	if !sp.JournalActive() {
		t.Fatal("journal not armed after BeginJournal")
	}
	if f := sp.Write(0x1000, []byte("AFTER!")); f != nil {
		t.Fatal(f)
	}
	// A write to a fresh (lazily-zero) region must also roll back to
	// zeros.
	if f := sp.Write(0x1100, []byte{1, 2, 3}); f != nil {
		t.Fatal(f)
	}
	sp.RollbackJournal()

	var buf [6]byte
	if f := sp.Read(0x1000, buf[:]); f != nil {
		t.Fatal(f)
	}
	if string(buf[:]) != "before" {
		t.Errorf("after rollback = %q, want %q", buf, "before")
	}
	var z [3]byte
	if f := sp.Read(0x1100, z[:]); f != nil {
		t.Fatal(f)
	}
	if z != [3]byte{} {
		t.Errorf("fresh region after rollback = %v, want zeros", z)
	}
	if sp.JournalActive() {
		t.Error("journal still armed after rollback")
	}
}

func TestJournalCommitKeepsWrites(t *testing.T) {
	sp := NewSpace()
	if f := sp.Map(0x1000, PageSize, ProtRW); f != nil {
		t.Fatal(f)
	}
	sp.BeginJournal()
	if f := sp.Write(0x1000, []byte("keep")); f != nil {
		t.Fatal(f)
	}
	sp.CommitJournal()
	var buf [4]byte
	if f := sp.Read(0x1000, buf[:]); f != nil {
		t.Fatal(f)
	}
	if string(buf[:]) != "keep" {
		t.Errorf("after commit = %q, want %q", buf, "keep")
	}
	if sp.JournalLen() != 0 {
		t.Errorf("journal entries retained after commit: %d", sp.JournalLen())
	}
}

func TestJournalNesting(t *testing.T) {
	sp := NewSpace()
	if f := sp.Map(0x1000, PageSize, ProtRW); f != nil {
		t.Fatal(f)
	}
	sp.BeginJournal()
	if f := sp.WriteByteAt(0x1000, 'a'); f != nil {
		t.Fatal(f)
	}
	sp.BeginJournal() // inner: a retry re-arming over the outer journal
	if f := sp.WriteByteAt(0x1001, 'b'); f != nil {
		t.Fatal(f)
	}
	sp.RollbackJournal() // undoes only 'b'
	if !sp.JournalActive() {
		t.Fatal("outer journal lost after inner rollback")
	}
	b, _ := sp.ReadByteAt(0x1001)
	if b != 0 {
		t.Errorf("inner write survived inner rollback: %q", b)
	}
	a, _ := sp.ReadByteAt(0x1000)
	if a != 'a' {
		t.Errorf("outer write lost by inner rollback: %q", a)
	}
	sp.RollbackJournal() // undoes 'a'
	a, _ = sp.ReadByteAt(0x1000)
	if a != 0 {
		t.Errorf("outer write survived outer rollback: %q", a)
	}
}

func TestJournalRollbackAfterPartialFaultingWrite(t *testing.T) {
	// The containment scenario: a write that faults partway through
	// (one mapped page, then unmapped) leaves partial bytes; rollback
	// must erase them.
	sp := NewSpace()
	if f := sp.Map(0x1000, PageSize, ProtRW); f != nil {
		t.Fatal(f)
	}
	start := Addr(0x1000 + PageSize - 3)
	sp.BeginJournal()
	f := sp.Write(start, []byte("XXXXXX")) // 3 bytes land, then SEGV
	if f == nil || f.Kind != FaultSegv {
		t.Fatalf("expected SEGV crossing the mapping, got %v", f)
	}
	sp.RollbackJournal()
	var buf [3]byte
	if f := sp.Read(start, buf[:]); f != nil {
		t.Fatal(f)
	}
	if buf != [3]byte{} {
		t.Errorf("partial write not rolled back: %v", buf)
	}
}

func TestJournalDiffSortedAndSkipsUnchanged(t *testing.T) {
	sp := NewSpace()
	if f := sp.Map(0x1000, PageSize, ProtRW); f != nil {
		t.Fatal(f)
	}
	if f := sp.Write(0x1000, []byte("before")); f != nil {
		t.Fatal(f)
	}
	sp.BeginJournal()
	// Write out of address order; only two bytes actually change value.
	if f := sp.Write(0x1004, []byte{'r'}); f != nil { // unchanged
		t.Fatal(f)
	}
	if f := sp.Write(0x1000, []byte("BEfore")); f != nil {
		t.Fatal(f)
	}
	diff := sp.JournalDiff()
	if len(diff) != 2 {
		t.Fatalf("diff = %+v, want 2 entries", diff)
	}
	want := []JournalDiffEntry{
		{Addr: 0x1000, Old: 'b', New: 'B'},
		{Addr: 0x1001, Old: 'e', New: 'E'},
	}
	for i, e := range diff {
		if e != want[i] {
			t.Errorf("diff[%d] = %+v, want %+v", i, e, want[i])
		}
	}
	if d := sp.JournalDiffDigest(); d == "" || d != sp.JournalDiffDigest() {
		t.Error("digest empty or unstable across calls")
	}
}

func TestJournalDiffLazilyZeroPages(t *testing.T) {
	sp := NewSpace()
	if f := sp.Map(0x1000, PageSize, ProtRW); f != nil {
		t.Fatal(f)
	}
	sp.BeginJournal()
	// The page has never been written: its backing store is still nil
	// and every byte reads as zero. A journaled write of {0, 7} changes
	// only the second byte's value.
	if f := sp.Write(0x1100, []byte{0, 7}); f != nil {
		t.Fatal(f)
	}
	diff := sp.JournalDiff()
	if len(diff) != 1 || diff[0] != (JournalDiffEntry{Addr: 0x1101, Old: 0, New: 7}) {
		t.Fatalf("diff over lazily-zero page = %+v, want one 0->7 entry at 0x1101", diff)
	}
}

func TestJournalDiffOverlappingWritesFirstPreImageWins(t *testing.T) {
	sp := NewSpace()
	if f := sp.Map(0x1000, PageSize, ProtRW); f != nil {
		t.Fatal(f)
	}
	if f := sp.Write(0x1000, []byte("ax")); f != nil {
		t.Fatal(f)
	}
	sp.BeginJournal()
	// Same byte written twice: Old must be the original value, New the
	// final one.
	if f := sp.Write(0x1000, []byte{'b'}); f != nil {
		t.Fatal(f)
	}
	if f := sp.Write(0x1000, []byte{'c'}); f != nil {
		t.Fatal(f)
	}
	// A byte overwritten and then restored to its pre-image must drop
	// out of the diff entirely.
	if f := sp.Write(0x1001, []byte{'y'}); f != nil {
		t.Fatal(f)
	}
	if f := sp.Write(0x1001, []byte{'x'}); f != nil {
		t.Fatal(f)
	}
	diff := sp.JournalDiff()
	if len(diff) != 1 || diff[0] != (JournalDiffEntry{Addr: 0x1000, Old: 'a', New: 'c'}) {
		t.Fatalf("diff = %+v, want one a->c entry at 0x1000", diff)
	}
}

func TestJournalDiffNestedCommitFoldsIntoOuter(t *testing.T) {
	sp := NewSpace()
	if f := sp.Map(0x1000, PageSize, ProtRW); f != nil {
		t.Fatal(f)
	}
	sp.BeginJournal() // outer
	if f := sp.Write(0x1000, []byte{'A'}); f != nil {
		t.Fatal(f)
	}
	sp.BeginJournal() // inner
	if f := sp.Write(0x1001, []byte{'B'}); f != nil {
		t.Fatal(f)
	}
	sp.CommitJournal() // inner commit must retain entries in the outer window
	if !sp.JournalActive() {
		t.Fatal("outer journal disarmed by inner commit")
	}
	diff := sp.JournalDiff()
	if len(diff) != 2 {
		t.Fatalf("outer diff after inner commit = %+v, want both bytes", diff)
	}
	// An inner rollback must leave the outer diff untouched.
	sp.BeginJournal()
	if f := sp.Write(0x1002, []byte{'C'}); f != nil {
		t.Fatal(f)
	}
	sp.RollbackJournal()
	diff = sp.JournalDiff()
	if len(diff) != 2 {
		t.Fatalf("outer diff after inner rollback = %+v, want 2 entries", diff)
	}
	// The last commit truncates everything.
	sp.CommitJournal()
	if sp.JournalActive() || sp.JournalLen() != 0 {
		t.Error("outermost commit left the journal armed or non-empty")
	}
}

func TestJournalDiffAfterRollbackEmpty(t *testing.T) {
	sp := NewSpace()
	if f := sp.Map(0x1000, PageSize, ProtRW); f != nil {
		t.Fatal(f)
	}
	sp.BeginJournal() // outer
	sp.BeginJournal() // inner
	if f := sp.Write(0x1000, []byte{9}); f != nil {
		t.Fatal(f)
	}
	sp.RollbackJournal() // inner
	if diff := sp.JournalDiff(); len(diff) != 0 {
		t.Fatalf("outer diff after inner rollback = %+v, want empty", diff)
	}
	empty := sp.JournalDiffDigest()
	sp.RollbackJournal() // outer
	if diff := sp.JournalDiff(); diff != nil {
		t.Fatalf("diff with no journal armed = %+v, want nil", diff)
	}
	if sp.JournalDiffDigest() != empty {
		t.Error("unarmed digest differs from empty-window digest")
	}
}

func TestCorruptJournaledBytePrefersDurable(t *testing.T) {
	sp := NewSpace()
	if f := sp.Map(DataBase, PageSize, ProtRW); f != nil {
		t.Fatal(f)
	}
	stack := Addr(StackTop - PageSize)
	if f := sp.Map(stack, PageSize, ProtRW); f != nil {
		t.Fatal(f)
	}
	if _, ok := sp.CorruptJournaledByte(); ok {
		t.Fatal("corrupted a byte with no journal armed")
	}
	sp.BeginJournal()
	if _, ok := sp.CorruptJournaledByte(); ok {
		t.Fatal("corrupted a byte with an empty journal window")
	}
	// A stack write alone: the durable pass finds nothing, the fallback
	// still corrupts the transient byte.
	if f := sp.Write(stack, []byte{1}); f != nil {
		t.Fatal(f)
	}
	if addr, ok := sp.CorruptJournaledByte(); !ok || addr != stack {
		t.Fatalf("fallback corruption at %v (ok=%v), want %v", addr, ok, stack)
	}
	// With a durable write journaled, it wins over the (newer) stack one.
	if f := sp.Write(DataBase, []byte{5}); f != nil {
		t.Fatal(f)
	}
	if f := sp.Write(stack+1, []byte{2}); f != nil {
		t.Fatal(f)
	}
	addr, ok := sp.CorruptJournaledByte()
	if !ok || addr != DataBase {
		t.Fatalf("corruption at %v (ok=%v), want durable %v", addr, ok, DataBase)
	}
	var b [1]byte
	if f := sp.Read(DataBase, b[:]); f != nil {
		t.Fatal(f)
	}
	if b[0] != 5^0xff {
		t.Errorf("corrupted byte = %#x, want %#x (XOR 0xff)", b[0], 5^0xff)
	}
	// The flip is itself journaled: rollback restores the original.
	sp.RollbackJournal()
	if f := sp.Read(DataBase, b[:]); f != nil {
		t.Fatal(f)
	}
	if b[0] != 0 {
		t.Errorf("byte after rollback = %#x, want 0", b[0])
	}
}

// journalModel is the naive reference for the write journal: a full
// snapshot of memory per nesting level, plus the addresses each level has
// written in order (what CorruptJournaledByte chooses from).
type journalModel struct {
	mem       [3 * PageSize]byte
	snapshots [][3 * PageSize]byte
	written   [][]Addr
}

// The model covers two durable heap pages and one stack page above
// HeapLimit.
var journalModelPages = [3]Addr{HeapBase, HeapBase + PageSize, StackTop - PageSize}

func journalModelIndex(a Addr) int {
	for i, base := range journalModelPages {
		if a >= base && a < base+PageSize {
			return i*PageSize + int(a-base)
		}
	}
	panic("address outside the journal model")
}

func (m *journalModel) store(a Addr, v byte) {
	m.mem[journalModelIndex(a)] = v
	if n := len(m.written); n > 0 {
		m.written[n-1] = append(m.written[n-1], a)
	}
}

func (m *journalModel) diff() []JournalDiffEntry {
	if len(m.snapshots) == 0 {
		return nil
	}
	snap := &m.snapshots[len(m.snapshots)-1]
	var diff []JournalDiffEntry
	for _, base := range journalModelPages { // ascending addresses
		for off := Addr(0); off < PageSize; off++ {
			i := journalModelIndex(base + off)
			if m.mem[i] != snap[i] {
				diff = append(diff, JournalDiffEntry{Addr: base + off, Old: snap[i], New: m.mem[i]})
			}
		}
	}
	return diff
}

// corruptPick is CorruptJournaledByte's documented choice: the newest
// durable byte the window wrote, else the newest byte at all.
func (m *journalModel) corruptPick() (Addr, bool) {
	if len(m.written) == 0 {
		return 0, false
	}
	w := m.written[len(m.written)-1]
	for i := len(w) - 1; i >= 0; i-- {
		if w[i] < HeapLimit {
			return w[i], true
		}
	}
	if len(w) == 0 {
		return 0, false
	}
	return w[len(w)-1], true
}

// TestJournalMatchesSnapshotModel runs random nested begin, write, fill,
// corrupt, commit and rollback sequences and checks memory after every
// RollbackJournal and every JournalDiff against the snapshot model.
func TestJournalMatchesSnapshotModel(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sp := NewSpace()
		for _, base := range journalModelPages {
			if f := sp.Map(base, PageSize, ProtRW); f != nil {
				t.Fatal(f)
			}
		}
		m := &journalModel{}
		randAddr := func(n int) Addr {
			base := journalModelPages[rng.Intn(3)]
			if base == HeapBase {
				// The two heap pages are contiguous: spans may cross.
				return base + Addr(rng.Intn(2*PageSize-n+1))
			}
			return base + Addr(rng.Intn(PageSize-n+1))
		}
		for step := 0; step < 120; step++ {
			var what string
			switch op := rng.Intn(10); {
			case op < 2:
				what = "begin"
				sp.BeginJournal()
				m.snapshots = append(m.snapshots, m.mem)
				m.written = append(m.written, nil)
			case op < 4:
				n := 1 + rng.Intn(64)
				a := randAddr(n)
				src := make([]byte, n)
				rng.Read(src)
				what = "write"
				if f := sp.Write(a, src); f != nil {
					t.Fatal(f)
				}
				for i, v := range src {
					m.store(a+Addr(i), v)
				}
			case op < 6:
				n := 1 + rng.Intn(300)
				a, v := randAddr(n), byte(rng.Intn(4))
				what = "fill"
				if f := sp.Fill(a, uint32(n), v); f != nil {
					t.Fatal(f)
				}
				for i := 0; i < n; i++ {
					m.store(a+Addr(i), v)
				}
			case op == 6:
				what = "corrupt"
				got, gotOK := sp.CorruptJournaledByte()
				want, wantOK := m.corruptPick()
				if got != want || gotOK != wantOK {
					t.Fatalf("seed %d step %d: CorruptJournaledByte = %s, %v; model %s, %v", seed, step, got, gotOK, want, wantOK)
				}
				if gotOK {
					m.store(got, m.mem[journalModelIndex(got)]^0xff)
				}
			case op == 7:
				what = "commit"
				sp.CommitJournal()
				if n := len(m.snapshots); n > 0 {
					inner := m.written[n-1]
					m.snapshots, m.written = m.snapshots[:n-1], m.written[:n-1]
					if n > 1 {
						m.written[n-2] = append(m.written[n-2], inner...)
					}
				}
			default:
				what = "rollback"
				sp.RollbackJournal()
				if n := len(m.snapshots); n > 0 {
					m.mem = m.snapshots[n-1]
					m.snapshots, m.written = m.snapshots[:n-1], m.written[:n-1]
				}
			}
			for i, base := range journalModelPages {
				got := make([]byte, PageSize)
				if f := sp.Read(base, got); f != nil {
					t.Fatal(f)
				}
				if want := m.mem[i*PageSize : (i+1)*PageSize]; string(got) != string(want) {
					t.Fatalf("seed %d step %d (%s): page %s differs from the model", seed, step, what, base)
				}
			}
			if got, want := sp.JournalDiff(), m.diff(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (%s): JournalDiff = %v, model %v", seed, step, what, got, want)
			}
			if sp.JournalActive() != (len(m.snapshots) > 0) {
				t.Fatalf("seed %d step %d (%s): JournalActive = %v at depth %d", seed, step, what, sp.JournalActive(), len(m.snapshots))
			}
		}
	}
}
