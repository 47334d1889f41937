package federation

import (
	"repro/internal/controlplane"
	"repro/internal/genconfig"
)

// MemberRuntime is a member-side runtime-config holder: a
// genconfig-backed psconfig.Target whose generation sequence doubles
// as the member's reported config generation. A full collector embeds
// the same mechanics inside controlplane.ControlPlane; MemberRuntime
// serves coordination tests and thin members that track configuration
// without running a control loop.
type MemberRuntime struct {
	store *genconfig.Store[controlplane.RuntimeConfig]
}

// NewMemberRuntime seeds the runtime with an initial config
// generation.
func NewMemberRuntime(initial controlplane.RuntimeConfig) *MemberRuntime {
	return &MemberRuntime{store: genconfig.NewStore(initial)}
}

// Update implements psconfig.Target: the mutation runs against a
// scratch copy and an error publishes nothing, so each config-P4
// command applies transactionally.
func (m *MemberRuntime) Update(mut func(*controlplane.RuntimeConfig) error) error {
	_, err := m.store.Publish(func(cur controlplane.RuntimeConfig) (controlplane.RuntimeConfig, error) {
		if err := mut(&cur); err != nil {
			return cur, err
		}
		return cur, nil
	})
	return err
}

// Seq returns the live generation's sequence number — what the member
// reports as MemberInfo.Generation in heartbeats.
func (m *MemberRuntime) Seq() uint64 { return m.store.Seq() }

// Snapshot returns the live runtime config.
func (m *MemberRuntime) Snapshot() controlplane.RuntimeConfig { return m.store.Current() }
