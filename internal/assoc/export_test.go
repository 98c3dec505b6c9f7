package assoc

// SetOf exposes key's set (MRU first) to the external test package.
func (s *Sets) SetOf(key uint64) []uint64 { return s.set(key) }
