package store

import "io"

// ContainerPath is the manifest-relative container path a trace's
// identity maps to.
var ContainerPath = containerPath

// WithoutJournalRemoval runs f with compaction leaving the journal in
// place, as a crash between the checkpoint's rename and the journal's
// removal would.
func WithoutJournalRemoval(f func()) {
	defer func(old func(string) error) { removeJournal = old }(removeJournal)
	removeJournal = func(string) error { return nil }
	f()
}

// AtomicWrite exposes the temp-file-then-rename writer.
func (s *Store) AtomicWrite(dest string, write func(io.Writer) error) error {
	return s.atomicWrite(dest, write)
}
