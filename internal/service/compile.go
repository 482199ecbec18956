package service

import (
	"encoding/json"
	"fmt"
	"sync"

	"odeproto/internal/core"
	"odeproto/internal/ode"
	"odeproto/internal/rewrite"
)

// CompileRequest is the body of POST /v1/compile and the compile prefix of
// a job spec: an equation system in the text DSL plus translation options.
type CompileRequest struct {
	// Source is the equation system in the text DSL, one equation per
	// line (e.g. "x' = -beta*x*y + alpha*z").
	Source string `json:"source"`
	// Params gives values for identifiers that are parameters rather than
	// variables.
	Params map[string]float64 `json:"params,omitempty"`
	// P fixes the normalizing constant p; 0 selects the largest valid p.
	P float64 `json:"p,omitempty"`
	// FailureRate is the compensated per-connection failure rate f.
	FailureRate float64 `json:"failure_rate,omitempty"`
	// NoRewrite disables the §7 rewriting pipeline; non-mappable systems and
	// constant terms then fail instead of being completed/homogenized/split
	// and expanded (§6).
	NoRewrite bool `json:"no_rewrite,omitempty"`
	// Slack names the slack variable introduced by rewriting (default "z").
	Slack string `json:"slack,omitempty"`
	// FlowPoint, when non-empty, selects the occupancy point at which the
	// compile response reports the protocol's expected per-period drift;
	// the default is the uniform point over the compiled states.
	FlowPoint map[string]float64 `json:"flow_point,omitempty"`
}

// ActionJSON is the wire form of one protocol action.
type ActionJSON struct {
	Kind        string   `json:"kind"`
	Owner       string   `json:"owner"`
	Coin        float64  `json:"coin"`
	Samples     []string `json:"samples,omitempty"`
	From        string   `json:"from"`
	To          string   `json:"to"`
	TermCoef    float64  `json:"term_coef,omitempty"`
	Description string   `json:"description"`
}

// ProtocolJSON is the wire form of a compiled protocol.
type ProtocolJSON struct {
	States      []string     `json:"states"`
	P           float64      `json:"p"`
	FailureRate float64      `json:"failure_rate,omitempty"`
	Actions     []ActionJSON `json:"actions"`
}

// CompileResponse is the body returned by POST /v1/compile.
type CompileResponse struct {
	// Taxonomy classifies the input system against the paper's §2 classes.
	Taxonomy string `json:"taxonomy"`
	// System is the parsed input system, canonically formatted.
	System string `json:"system"`
	// Rewritten reports whether the §7 pipeline ran; RewrittenSystem then
	// holds the mappable form that was translated.
	Rewritten       bool   `json:"rewritten"`
	RewrittenSystem string `json:"rewritten_system,omitempty"`
	// RewrittenTaxonomy classifies the translated system.
	RewrittenTaxonomy string `json:"rewritten_taxonomy,omitempty"`
	// Protocol is the compiled protocol.
	Protocol ProtocolJSON `json:"protocol"`
	// ExpectedFlow is the protocol's exact expected per-period drift at
	// FlowPoint (Theorem 1/5's p·f̄(X̄)).
	ExpectedFlow map[string]float64 `json:"expected_flow"`
	// FlowPoint is the occupancy point ExpectedFlow was evaluated at.
	FlowPoint map[string]float64 `json:"flow_point"`
	// SamplingMessages gives each state's per-period sampling message
	// count (the §3 message-complexity measure).
	SamplingMessages map[string]int `json:"sampling_messages"`
}

// compiled is the in-memory output of the compile pipeline, shared between
// the compile endpoint and job submission.
type compiled struct {
	input     *ode.System
	taxonomy  ode.Class
	rewritten bool
	final     *ode.System
	proto     *core.Protocol
}

// compileCacheCap bounds the memoized compile results. Compilation is
// pure, so the whole cache is dropped (rather than LRU-tracked) on
// overflow; a working set larger than this is re-derivable.
const compileCacheCap = 256

var compileCache struct {
	mu sync.Mutex
	m  map[string]*compiled
}

// compileMemoKey is the canonical identity of a compile request. FlowPoint
// is excluded: it only affects the compile *response* rendering, not the
// compiled artifact.
func compileMemoKey(req CompileRequest) (string, bool) {
	req.FlowPoint = nil
	b, err := json.Marshal(req) // map keys marshal sorted, so this is canonical
	if err != nil {
		return "", false
	}
	return string(b), true
}

// compilePipeline memoizes compilePipelineUncached. A *compiled is
// immutable after construction and already shared between coalesced jobs,
// so handing the same pointer to every equivalent request is safe. This
// matters most in a cluster, where a routed submission compiles the spec
// on the ingress node (to derive its routing key) and again on the owner.
func compilePipeline(req CompileRequest) (*compiled, error) {
	key, ok := compileMemoKey(req)
	if !ok {
		return compilePipelineUncached(req)
	}
	compileCache.mu.Lock()
	c := compileCache.m[key]
	compileCache.mu.Unlock()
	if c != nil {
		return c, nil
	}
	c, err := compilePipelineUncached(req)
	if err != nil {
		return nil, err
	}
	compileCache.mu.Lock()
	if len(compileCache.m) >= compileCacheCap {
		compileCache.m = nil
	}
	if compileCache.m == nil {
		compileCache.m = make(map[string]*compiled)
	}
	compileCache.m[key] = c
	compileCache.mu.Unlock()
	return c, nil
}

// compilePipelineUncached runs parse → classify → (rewrite) → translate.
// All failures are input errors (the caller maps them to 400s).
func compilePipelineUncached(req CompileRequest) (*compiled, error) {
	if req.Source == "" {
		return nil, fmt.Errorf("missing source")
	}
	slack := req.Slack
	if slack == "" {
		slack = "z"
	}
	sys, err := ode.Parse(req.Source, req.Params)
	if err != nil {
		return nil, err
	}
	out := &compiled{input: sys, taxonomy: sys.Classify(), final: sys}
	if rewrite.Needed(sys) {
		if req.NoRewrite {
			return nil, fmt.Errorf("system (%s) needs the §7 rewrite or the §6 expansion of a constant c into c·Σx, and rewriting is disabled", out.taxonomy)
		}
		rewritten, err := rewrite.MakeMappable(sys, ode.Var(slack))
		if err != nil {
			return nil, fmt.Errorf("rewriting failed: %w", err)
		}
		out.rewritten = true
		out.final = rewritten
	}
	proto, err := core.Translate(out.final, core.Options{P: req.P, FailureRate: req.FailureRate})
	if err != nil {
		return nil, err
	}
	out.proto = proto
	return out, nil
}

// protocolJSON converts a compiled protocol to its wire form.
func protocolJSON(p *core.Protocol) ProtocolJSON {
	out := ProtocolJSON{
		P:           p.P,
		FailureRate: p.FailureRate,
		States:      make([]string, len(p.States)),
		Actions:     make([]ActionJSON, len(p.Actions)),
	}
	for i, s := range p.States {
		out.States[i] = string(s)
	}
	for i, a := range p.Actions {
		aj := ActionJSON{
			Kind:        a.Kind.String(),
			Owner:       string(a.Owner),
			Coin:        a.Coin,
			From:        string(a.From),
			To:          string(a.To),
			TermCoef:    a.TermCoef,
			Description: a.String(),
		}
		for _, s := range a.Samples {
			aj.Samples = append(aj.Samples, string(s))
		}
		out.Actions[i] = aj
	}
	return out
}

// compileResponse assembles the full compile endpoint response.
func compileResponse(req CompileRequest, c *compiled) CompileResponse {
	resp := CompileResponse{
		Taxonomy:  c.taxonomy.String(),
		System:    c.input.String(),
		Rewritten: c.rewritten,
		Protocol:  protocolJSON(c.proto),
	}
	if c.rewritten {
		resp.RewrittenSystem = c.final.String()
		resp.RewrittenTaxonomy = c.final.Classify().String()
	}
	point := make(map[ode.Var]float64, len(c.proto.States))
	if len(req.FlowPoint) > 0 {
		for k, v := range req.FlowPoint {
			point[ode.Var(k)] = v
		}
	} else {
		for _, s := range c.proto.States {
			point[s] = 1 / float64(len(c.proto.States))
		}
	}
	flow := c.proto.ExpectedFlow(point)
	resp.ExpectedFlow = make(map[string]float64, len(flow))
	for k, v := range flow {
		resp.ExpectedFlow[string(k)] = v
	}
	resp.FlowPoint = make(map[string]float64, len(point))
	for k, v := range point {
		resp.FlowPoint[string(k)] = v
	}
	resp.SamplingMessages = make(map[string]int, len(c.proto.States))
	for _, s := range c.proto.States {
		resp.SamplingMessages[string(s)] = c.proto.SamplingMessages(s)
	}
	return resp
}
