package audit

import "sanity/internal/pipeline"

// ErrCanceled is the sentinel matched by errors.Is when an audit was
// canceled through its context before every verdict was emitted. It
// is the same sentinel the pipeline layer raises, so a caller holding
// either package's name matches the same failures; the typed form
// (pipeline.CanceledError) additionally unwraps to the context cause,
// so errors.Is(err, context.Canceled) holds too.
var ErrCanceled = pipeline.ErrCanceled
