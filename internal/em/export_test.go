package em

// RefReceiver is the per-cycle oracle receiver (oracle_test.go), exported
// to the package's external tests, which import internal/faults and so
// cannot live in package em.
type RefReceiver = refReceiver

// NewRefReceiver builds the oracle for cfg, which must be valid.
func NewRefReceiver(cfg ReceiverConfig) *RefReceiver { return newRefReceiver(cfg) }
