// Package mac implements the IEEE 802.11g distributed coordination function
// (DCF) at the level of detail the paper's NS3 experiments exercise: DIFS
// sensing, slotted backoff countdown with freeze/resume, data transmission,
// SIFS-spaced acknowledgements, ACK-timeout collision inference,
// retransmission driven by a pluggable contention-window policy, and an
// optional RTS/CTS exchange.
//
// The package is the repo's stand-in for NS3 (see DESIGN.md): it reproduces
// the collision-detection cost path — a failed transmission costs a full
// frame time plus an ACK timeout plus re-contention — which assumption A2 of
// the abstract model prices at one slot.
package mac

import (
	"time"

	"repro/internal/phy"
)

// Config collects every protocol parameter of a run; DefaultConfig matches
// the paper's Table I.
type Config struct {
	// DataRate is the PHY rate for data frames (54 Mbit/s in the paper).
	DataRate phy.Rate
	// ControlRate is the PHY rate for ACK/RTS/CTS frames.
	ControlRate phy.Rate
	// SlotTime is the backoff slot duration (9 µs).
	SlotTime time.Duration
	// SIFS is the short inter-frame space (16 µs).
	SIFS time.Duration
	// DIFS is the distributed inter-frame space (34 µs).
	DIFS time.Duration
	// EIFS is the extended inter-frame space a station must defer after
	// hearing a frame it could not decode (IEEE 802.11: SIFS + ACK duration
	// + DIFS ≈ 78 µs here). It is what makes every collision expensive for
	// bystanders too, not only for the colliding senders.
	EIFS time.Duration
	// AckTimeout is how long a sender waits after its transmission ends
	// before concluding a collision occurred (75 µs, NS3's default, which
	// the paper keeps).
	AckTimeout time.Duration
	// PayloadBytes is the application payload per packet (64 or 1024).
	PayloadBytes int
	// OverheadBytes is per-packet header overhead: 8 (UDP) + 20 (IP) +
	// 8 (LLC/SNAP) + 28 (MAC) = 64 bytes.
	OverheadBytes int
	// CWMin and CWMax truncate every policy's contention window (1, 1024).
	CWMin, CWMax int
	// RTSCTS enables the request-to-send/clear-to-send exchange.
	RTSCTS bool
	// RTSBytes, CTSBytes, AckBytes are control-frame sizes (20, 14, 14).
	RTSBytes, CTSBytes, AckBytes int
	// Radio configures the PHY (power, noise, path loss).
	Radio phy.Config
	// Layout overrides station placement for topology ablations; nil keeps
	// the paper's grid (phy.StationGrid). The AP stays at the grid centre.
	Layout func(n int) []phy.Position
	// MaxEvents aborts a runaway simulation; 0 uses a generous default.
	MaxEvents uint64
}

// DefaultConfig returns the paper's Table I parameters with a 64-byte
// payload.
func DefaultConfig() Config {
	return Config{
		DataRate:      phy.Rate54Mbps,
		ControlRate:   phy.Rate24Mbps,
		SlotTime:      9 * time.Microsecond,
		SIFS:          16 * time.Microsecond,
		DIFS:          34 * time.Microsecond,
		EIFS:          (16 + 28 + 34) * time.Microsecond, // SIFS + ACK + DIFS
		AckTimeout:    75 * time.Microsecond,
		PayloadBytes:  64,
		OverheadBytes: 64,
		CWMin:         1,
		CWMax:         1024,
		RTSCTS:        false,
		RTSBytes:      20,
		CTSBytes:      14,
		AckBytes:      14,
		Radio:         phy.DefaultConfig(),
	}
}

// PacketBytes returns the on-air PSDU size of a data frame.
func (c Config) PacketBytes() int { return c.PayloadBytes + c.OverheadBytes }

// DataFrameDuration returns the on-air duration of one data frame,
// preamble included.
func (c Config) DataFrameDuration() time.Duration {
	return phy.FrameDuration(c.DataRate, c.PacketBytes())
}

// AckDuration returns the on-air duration of an ACK frame.
func (c Config) AckDuration() time.Duration {
	return phy.FrameDuration(c.ControlRate, c.AckBytes)
}

// MinPerPacketTime is the cost of one uncontended success: data frame +
// SIFS + ACK. Used by tests as a lower bound on total time.
func (c Config) MinPerPacketTime() time.Duration {
	return c.DataFrameDuration() + c.SIFS + c.AckDuration()
}

// positions places n stations: the Layout override, or the paper's grid.
func (c Config) positions(n int) []phy.Position {
	if c.Layout != nil {
		return c.Layout(n)
	}
	return phy.StationGrid(n)
}

func (c Config) maxEvents() uint64 {
	if c.MaxEvents > 0 {
		return c.MaxEvents
	}
	return 200_000_000
}
