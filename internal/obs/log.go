package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// NewLeveledLogger returns a JSON slog logger writing to w at the given
// minimum level (the -log-level flag lands here), with the node name
// attached to every record so multi-node logs interleave legibly. An
// empty node is omitted.
func NewLeveledLogger(w io.Writer, node string, level slog.Level) *slog.Logger {
	l := slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
	if node != "" {
		l = l.With("node", node)
	}
	return l
}

// ParseLevel maps a -log-level flag value (debug/info/warn/error,
// case-insensitive) to its slog level, rejecting anything else so a
// typo'd flag fails boot instead of silently logging at info.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", s)
}

// NopLogger returns a logger that drops everything — the default when a
// component is constructed without one, so call sites never nil-check.
func NopLogger() *slog.Logger {
	return slog.New(slog.DiscardHandler)
}
