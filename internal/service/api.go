// Package service implements the ficd campaign service and its worker
// client: the cross-process half of campaign scaling (ROADMAP item 1).
// A campaign Spec submitted over HTTP/JSON is cut into claimable shards
// (blocks of test cases); worker processes claim shards under expiring
// leases, execute them with the normal in-process campaign machinery,
// and upload their shard journals; the service validates each upload,
// merges the shard journals, and renders Tables 7-9 byte-identical to a
// single-process run. Progress streams to any number of subscribers
// over SSE.
//
// The wire protocol, the shard-claim/lease state machine and the
// failure-mode table are documented in SERVICE.md; the determinism
// argument that makes the merge sound is in ARCHITECTURE.md.
package service

import "easig/internal/experiment"

// SubmitRequest is the body of POST /api/v1/campaigns: the campaign
// protocol plus distribution parameters.
type SubmitRequest struct {
	// Kind selects the campaign: "e1", "e2" or "exhaustive".
	Kind string `json:"kind"`
	// Spec is the serializable campaign protocol. Spec.Cases must be
	// empty (the service assigns cases via shards); Spec.Exhaustive is
	// implied by Kind "exhaustive".
	Spec experiment.Spec `json:"spec"`
	// Engine selects the execution engine every worker must use
	// ("auto", "literal", "snapshot", "prune", "memo"; default auto,
	// which resolves to prune — service campaigns are detection-only —
	// and to memo for the exhaustive census). All shards of a campaign
	// must share one engine so the merged tables have a single
	// provenance.
	Engine string `json:"engine,omitempty"`
	// CasesPerShard sizes the shards (default 1 test case per shard —
	// the finest work units, and the best load balance).
	CasesPerShard int `json:"cases_per_shard,omitempty"`
	// LeaseMs overrides the service's default shard lease duration.
	LeaseMs int64 `json:"lease_ms,omitempty"`
}

// Campaign states reported by the API.
const (
	// StateRunning: shards are pending, leased or partially done.
	StateRunning = "running"
	// StateComplete: every shard is done and the merged results are
	// available at /results.
	StateComplete = "complete"
	// StateFailed: the final merge failed (see CampaignInfo.Error).
	StateFailed = "failed"
)

// CampaignInfo is the campaign summary returned by submit, list and
// status responses.
type CampaignInfo struct {
	// ID is the service-assigned campaign identifier.
	ID string `json:"id"`
	// Kind is the submitted campaign kind.
	Kind string `json:"kind"`
	// Experiment is the canonical journal experiment name ("E1", "E2",
	// "E2-exhaustive").
	Experiment string `json:"experiment"`
	// Engine is the resolved execution engine every shard runs under.
	Engine string `json:"engine"`
	// State is StateRunning, StateComplete or StateFailed.
	State string `json:"state"`
	// ShardCount is the number of shards in the campaign's plan.
	ShardCount int `json:"shards"`
	// DoneShards counts completed shards.
	DoneShards int `json:"done_shards"`
	// TotalRuns is the campaign's total run count.
	TotalRuns int `json:"total_runs"`
	// CompletedRuns counts runs in completed shards plus the lease
	// holders' heartbeat-reported progress.
	CompletedRuns int `json:"completed_runs"`
	// LeaseMs is the shard lease duration.
	LeaseMs int64 `json:"lease_ms"`
	// Error carries the failure reason when State is StateFailed.
	Error string `json:"error,omitempty"`
}

// ListResponse is the body of GET /api/v1/campaigns.
type ListResponse struct {
	Campaigns []CampaignInfo `json:"campaigns"`
}

// StatusResponse is the body of GET /api/v1/campaigns/{id}: the summary
// plus the Spec and per-shard lease states.
type StatusResponse struct {
	CampaignInfo
	// Spec is the campaign protocol as submitted.
	Spec experiment.Spec `json:"spec"`
	// Shards lists every shard's lease state.
	Shards []experiment.ShardStatus `json:"shard_states"`
}

// ClaimRequest is the body of POST /api/v1/campaigns/{id}/claims.
type ClaimRequest struct {
	// Worker identifies the claiming worker (unique per process).
	Worker string `json:"worker"`
}

// ClaimResponse is the claim outcome. Exactly one of Shard, Wait and
// Done describes it: a granted shard, nothing claimable right now
// (every shard leased — retry after a poll interval), or nothing left
// ever (the campaign is terminal).
type ClaimResponse struct {
	// Done reports a terminal campaign: the worker should move on.
	Done bool `json:"done,omitempty"`
	// Wait reports that all shards are currently leased or done; the
	// worker should poll again (a lease may yet expire).
	Wait bool `json:"wait,omitempty"`
	// Shard is the granted work unit.
	Shard *experiment.Shard `json:"shard,omitempty"`
	// Spec is the campaign protocol with Cases set to the shard — a
	// self-contained campaign config for the worker.
	Spec *experiment.Spec `json:"spec,omitempty"`
	// Kind is the campaign kind ("e1", "e2", "exhaustive"), telling the
	// worker which campaign entry point to run.
	Kind string `json:"kind,omitempty"`
	// Experiment is the canonical journal experiment name.
	Experiment string `json:"experiment,omitempty"`
	// Engine is the engine mode the worker must run the shard under.
	Engine string `json:"engine,omitempty"`
	// LeaseMs is the lease duration; the worker must heartbeat well
	// within it (LeaseMs/3 is the client default).
	LeaseMs int64 `json:"lease_ms,omitempty"`
}

// HeartbeatRequest is the body of
// POST /api/v1/campaigns/{id}/shards/{shard}/heartbeat: it renews the
// worker's lease and reports shard progress.
type HeartbeatRequest struct {
	// Worker must be the lease holder.
	Worker string `json:"worker"`
	// CompletedRuns is the shard's completed run count so far.
	CompletedRuns int `json:"completed_runs"`
}

// CompleteResponse is the body returned by the shard journal upload
// endpoint (POST /api/v1/campaigns/{id}/shards/{shard}/journal).
type CompleteResponse struct {
	// Accepted reports the journal validated and the shard is done.
	Accepted bool `json:"accepted"`
	// Duplicate reports the shard was already complete (the benign
	// reclaimed-lease race); the upload was discarded as redundant —
	// determinism makes it byte-identical to the accepted one.
	Duplicate bool `json:"duplicate,omitempty"`
	// Campaign is the campaign summary after the completion (State
	// flips to complete with the last shard).
	Campaign CampaignInfo `json:"campaign"`
}

// ErrorResponse is the JSON body of every non-2xx API response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Event is one SSE payload on GET /api/v1/campaigns/{id}/events. The
// SSE `event:` field duplicates Type.
type Event struct {
	// Type is one of "submitted", "claim", "heartbeat", "reclaim",
	// "shard_done", "complete", "failed".
	Type string `json:"type"`
	// Campaign is the campaign ID.
	Campaign string `json:"campaign"`
	// Shard is the shard index for shard-scoped events.
	Shard *int `json:"shard,omitempty"`
	// Worker is the acting worker for claim/heartbeat/shard_done.
	Worker string `json:"worker,omitempty"`
	// State is the campaign state after the event.
	State string `json:"state"`
	// CompletedRuns and TotalRuns snapshot campaign progress.
	CompletedRuns int `json:"completed_runs"`
	TotalRuns     int `json:"total_runs"`
	// Message carries the failure reason on "failed" events.
	Message string `json:"message,omitempty"`
}
