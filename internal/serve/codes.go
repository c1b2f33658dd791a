package serve

// Machine-readable error codes for the structured JSON error contract
// (errorResponse.Code). This block is the registry: every fail/shed call
// site names a constant from it, which is what keeps the enumeration —
// documented in the README's error table and matched by closed-loop bench
// clients — from drifting one hand-typed literal at a time. The spanfinish
// analyzer enforces the discipline; the admission shed reasons
// (shedQueueFull, shedDeadline in admission.go) are registered the same way.
const (
	// Client mistakes (4xx).
	codeMissingQuery     = "missing_query"      // no q parameter
	codeParseError       = "parse_error"        // query text or request body does not parse
	codeQueryTooLong     = "query_too_long"     // q parameter over maxQueryBytes
	codeBadK             = "bad_k"              // k parameter not a non-zero integer
	codeBadMode          = "bad_mode"           // mode parameter outside the mode enum
	codeBadOp            = "bad_op"             // update op outside the op enum
	codeUnknownDataset   = "unknown_dataset"    // dataset name not in the catalog
	codeNoExactIndex     = "no_exact_index"     // exact mode on a synopsis-only dataset
	codeMethodNotAllowed = "method_not_allowed" // wrong HTTP method
	codeUpdateRejected   = "update_rejected"    // update failed tier admission checks
	codeTupleOverflow    = "tuple_overflow"     // exact count overflowed float64

	// Server-side refusals (503).
	codeDraining         = "draining"          // server is draining before shutdown
	codeDeadlineExceeded = "deadline_exceeded" // request deadline lapsed before an answer
)
