package sim

// CompactFloor exports compactFloor to the external queue tests.
const CompactFloor = compactFloor

// HeapStats returns the event heap's length and how many of its entries
// are canceled.
func HeapStats(s *Sim) (entries, dead int) { return len(s.events), s.dead }
