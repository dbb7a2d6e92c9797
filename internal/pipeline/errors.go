package pipeline

import (
	"errors"
	"fmt"
)

// ErrInvalidBatch is the sentinel matched by errors.Is when a batch
// cannot be audited as submitted: a job without trace material, or a
// job referencing a shard the batch does not carry. The typed form is
// BatchError.
var ErrInvalidBatch = errors.New("pipeline: invalid batch")

// BatchError is the typed form of ErrInvalidBatch, naming the job that
// made the batch unauditable. It unwraps to ErrInvalidBatch.
type BatchError struct {
	// Index is the job's submission index.
	Index int
	// JobID names the job.
	JobID string
	// Reason says what is wrong with it.
	Reason string
}

// Error implements error.
func (e *BatchError) Error() string {
	return fmt.Sprintf("pipeline: job %d (%q): %s", e.Index, e.JobID, e.Reason)
}

// Unwrap makes errors.Is(err, ErrInvalidBatch) hold.
func (e *BatchError) Unwrap() error { return ErrInvalidBatch }

// ErrCanceled is the sentinel matched by errors.Is when an audit run
// was canceled through its context before every verdict was emitted.
// The verdicts that were emitted are complete and in submission order
// — cancellation truncates a stream, it never corrupts one.
var ErrCanceled = errors.New("pipeline: audit canceled")

// CanceledError is the typed form of ErrCanceled: how far the run got
// and why it stopped. It unwraps to both ErrCanceled and the
// context's cause (context.Canceled or context.DeadlineExceeded), so
// errors.Is works against either.
type CanceledError struct {
	// Emitted counts the verdicts delivered, all of them the ordered
	// prefix of the submission sequence.
	Emitted int
	// Cause is the context's error.
	Cause error
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("pipeline: audit canceled after %d verdicts: %v", e.Emitted, e.Cause)
}

// Unwrap makes errors.Is match ErrCanceled and the context cause.
func (e *CanceledError) Unwrap() []error { return []error{ErrCanceled, e.Cause} }

// LoadError marks a verdict whose job's trace could not be loaded —
// a container that is corrupt or gone. The verdict carries it in
// Verdict.LoadErr beside the "load: ..." text in Err; a consumer that
// audits stored traces (the audit daemon) tells such a job from an
// audited one by it. It unwraps to the loader's error.
type LoadError struct {
	Err error
}

// Error implements error.
func (e *LoadError) Error() string { return "load: " + e.Err.Error() }

// Unwrap returns the loader's error.
func (e *LoadError) Unwrap() error { return e.Err }
