package lint

import "strings"

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerDeterminism,
		AnalyzerClosecheck,
		AnalyzerNoblocklock,
	}
}

// ByName resolves a comma-separated analyzer name list ("" → all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, &UnknownAnalyzerError{Name: name}
		}
		out = append(out, a)
	}
	return out, nil
}

// UnknownAnalyzerError names an analyzer that does not exist.
type UnknownAnalyzerError struct{ Name string }

func (e *UnknownAnalyzerError) Error() string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return "unknown analyzer " + e.Name + " (have " + strings.Join(names, ", ") + ")"
}
