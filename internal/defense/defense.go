// Package defense implements the paper's countermeasure (the polling kernel
// module), its two deeper-deployment variants (microcode write-guard and
// hardware clamp MSR, Sec. 5), and the two prior-work baselines the paper
// compares against:
//
//   - access control (Intel SA-00289 [12]): the OC mailbox is rejected
//     while any SGX enclave exists, and the lockdown state is attested —
//     blocking *benign* DVFS along with the attack;
//   - deflection (Minefield [15]): the compiler interleaves
//     fault-magnet trap instructions with enclave code so a DVFS fault is
//     overwhelmingly likely to hit a trap first — sound only if the
//     adversary cannot single-step the enclave.
//
// All countermeasures install against the same Env, so the evaluation
// matrix (experiment E2) exercises them uniformly.
package defense

import (
	"errors"
	"fmt"

	"plugvolt/internal/core"
	"plugvolt/internal/cpu"
	"plugvolt/internal/kernel"
	"plugvolt/internal/msr"
	"plugvolt/internal/sgx"
	"plugvolt/internal/telemetry"
)

// Env is the machine a countermeasure deploys onto.
type Env struct {
	Platform *cpu.Platform
	Kernel   *kernel.Kernel
	Registry *sgx.Registry
	// Telemetry, when set, receives attack/defense instrumentation (mailbox
	// write counters, fault events); when its flight recorder is set,
	// attack campaigns fire incident triggers into it at every observed
	// victim fault and machine crash. Optional: a nil set disables it and
	// every instrument degrades to a no-op.
	Telemetry *telemetry.Set
}

// Validate checks the env is complete.
func (e *Env) Validate() error {
	if e == nil || e.Platform == nil || e.Kernel == nil || e.Registry == nil {
		return errors.New("defense: env needs platform, kernel and registry")
	}
	return nil
}

// Countermeasure is a deployable DVFS-fault defense.
type Countermeasure interface {
	// Name identifies the defense in result tables.
	Name() string
	// Install deploys onto the environment.
	Install(env *Env) error
	// Uninstall reverts the deployment.
	Uninstall(env *Env) error
	// AllowsBenignDVFS reports whether a benign process can still apply a
	// *safe* undervolt while the defense is active and an enclave exists —
	// the paper's availability criterion.
	AllowsBenignDVFS() bool
	// HardwareLevel reports whether the defense could be implemented below
	// the kernel (microcode or MSR), per the paper's Sec. 5 criterion.
	HardwareLevel() bool
}

// None is the undefended baseline.
type None struct{}

// Name implements Countermeasure.
func (None) Name() string { return "none" }

// Install implements Countermeasure.
func (None) Install(env *Env) error { return env.Validate() }

// Uninstall implements Countermeasure.
func (None) Uninstall(*Env) error { return nil }

// AllowsBenignDVFS implements Countermeasure.
func (None) AllowsBenignDVFS() bool { return true }

// HardwareLevel implements Countermeasure.
func (None) HardwareLevel() bool { return false }

// AccessControl models Intel's SA-00289 response: while any enclave exists,
// writes to the OC mailbox general-protection fault, and the lockdown is
// visible in attestation (OCMDisabled).
type AccessControl struct {
	installed bool
	hookIDs   []int
}

// Name implements Countermeasure.
func (*AccessControl) Name() string { return "access-control (SA-00289)" }

// Install implements Countermeasure.
func (a *AccessControl) Install(env *Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if a.installed {
		return errors.New("defense: access control already installed")
	}
	reg := env.Registry
	a.hookIDs = a.hookIDs[:0]
	for i := 0; i < env.Platform.NumCores(); i++ {
		f := env.Platform.MSRFile(i)
		id := f.AddWriteHook(msr.OCMailbox, func(_ *msr.File, old, v uint64) (uint64, error) {
			if reg.AnyRunning() {
				return 0, &msr.GPFault{Addr: msr.OCMailbox, Op: "wrmsr",
					Why: "OC mailbox disabled while SGX is in use (SA-00289)"}
			}
			return v, nil
		})
		a.hookIDs = append(a.hookIDs, id)
	}
	env.Registry.Features.OCMDisabled = true
	a.installed = true
	return nil
}

// Uninstall implements Countermeasure.
func (a *AccessControl) Uninstall(env *Env) error {
	if !a.installed {
		return nil
	}
	for i, id := range a.hookIDs {
		env.Platform.MSRFile(i).RemoveWriteHook(msr.OCMailbox, id)
	}
	a.hookIDs = nil
	env.Registry.Features.OCMDisabled = false
	a.installed = false
	return nil
}

// AllowsBenignDVFS implements Countermeasure: the lockdown rejects *all*
// mailbox writes while an enclave exists, benign or not.
func (*AccessControl) AllowsBenignDVFS() bool { return false }

// HardwareLevel implements Countermeasure: SA-00289 is a microcode change,
// but it gates access rather than states; the paper classifies it as an
// access-control path fix, not a state-level hardware countermeasure.
func (*AccessControl) HardwareLevel() bool { return false }

// Polling is the paper's countermeasure packaged as a Countermeasure: the
// Algorithm 3 kernel module plus the attestation-report extension.
type Polling struct {
	Guard *core.Guard
}

// NewPolling builds the polling defense from a characterized unsafe set.
func NewPolling(unsafe *core.UnsafeSet, busMHz int, cfg core.GuardConfig) (*Polling, error) {
	g, err := core.NewGuard(unsafe, busMHz, cfg)
	if err != nil {
		return nil, err
	}
	return &Polling{Guard: g}, nil
}

// Name implements Countermeasure.
func (*Polling) Name() string { return "polling (this work)" }

// Install implements Countermeasure: insmod + attestation wiring.
func (p *Polling) Install(env *Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if err := env.Kernel.Load(p.Guard.Module()); err != nil {
		return err
	}
	// The paper swaps the OCM flag for the module-loaded flag in reports.
	k := env.Kernel
	env.Registry.Features.GuardModuleLoaded = func() bool { return k.Loaded(core.ModuleName) }
	return nil
}

// Uninstall implements Countermeasure (rmmod; the attestation hook stays
// and now reports false — which is the point).
func (p *Polling) Uninstall(env *Env) error {
	if !env.Kernel.Loaded(core.ModuleName) {
		return nil
	}
	return env.Kernel.Unload(core.ModuleName)
}

// AllowsBenignDVFS implements Countermeasure: safe-region undervolts are
// untouched by Algorithm 3.
func (*Polling) AllowsBenignDVFS() bool { return true }

// HardwareLevel implements Countermeasure: the kernel-module deployment is
// software, but the safe-state characterization admits the deeper variants
// below; the module itself is not hardware-level.
func (*Polling) HardwareLevel() bool { return false }

// Microcode is the Sec. 5.1 deployment: a microcode hook on wrmsr 0x150
// silently ignores writes that would violate the maximal safe state
// ("this write-ignore behaviour is implemented upon several other MSRs").
type Microcode struct {
	// MaxSafeOffsetMV is the maximal safe state from characterization.
	MaxSafeOffsetMV int
	installed       bool
	hookIDs         []int
	// Ignored counts writes dropped by the guard.
	Ignored uint64
}

// Name implements Countermeasure.
func (*Microcode) Name() string { return "microcode write-ignore" }

// Install implements Countermeasure.
func (m *Microcode) Install(env *Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if m.MaxSafeOffsetMV > 0 {
		return fmt.Errorf("defense: maximal safe offset %d must be <= 0", m.MaxSafeOffsetMV)
	}
	if m.installed {
		return errors.New("defense: microcode guard already installed")
	}
	m.hookIDs = m.hookIDs[:0]
	for i := 0; i < env.Platform.NumCores(); i++ {
		id := env.Platform.MSRFile(i).AddWriteHook(msr.OCMailbox, func(_ *msr.File, old, v uint64) (uint64, error) {
			d := msr.DecodeVoltageOffset(v)
			if d.Busy && d.Write && d.Plane == msr.PlaneCore && d.OffsetMV < m.MaxSafeOffsetMV {
				m.Ignored++
				return old, nil // write-ignore: wrmsr succeeds, state unchanged
			}
			return v, nil
		})
		m.hookIDs = append(m.hookIDs, id)
	}
	m.installed = true
	return nil
}

// Uninstall implements Countermeasure.
func (m *Microcode) Uninstall(env *Env) error {
	if !m.installed {
		return nil
	}
	for i, id := range m.hookIDs {
		env.Platform.MSRFile(i).RemoveWriteHook(msr.OCMailbox, id)
	}
	m.hookIDs = nil
	m.installed = false
	return nil
}

// AllowsBenignDVFS implements Countermeasure: undervolts within the maximal
// safe state pass through.
func (*Microcode) AllowsBenignDVFS() bool { return true }

// HardwareLevel implements Countermeasure.
func (*Microcode) HardwareLevel() bool { return true }

// ClampMSR is the Sec. 5.2 deployment: a new MSR_VOLTAGE_OFFSET_LIMIT
// (modelled at 0x154) holds the maximal safe state, and writes to 0x150
// are *clamped* to it — the DRAM_MIN_PWR pattern from MSR_DRAM_POWER_INFO.
type ClampMSR struct {
	// LimitMV is the clamp value programmed into MSR_VOLTAGE_OFFSET_LIMIT.
	LimitMV   int
	installed bool
	hookIDs   []int
	// Clamped counts writes whose offset was pulled up to the limit.
	Clamped uint64
}

// Name implements Countermeasure.
func (*ClampMSR) Name() string { return "clamp MSR (MSR_VOLTAGE_OFFSET_LIMIT)" }

// Install implements Countermeasure.
func (c *ClampMSR) Install(env *Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if c.LimitMV > 0 {
		return fmt.Errorf("defense: clamp limit %d must be <= 0", c.LimitMV)
	}
	if c.installed {
		return errors.New("defense: clamp MSR already installed")
	}
	c.hookIDs = c.hookIDs[:0]
	for i := 0; i < env.Platform.NumCores(); i++ {
		f := env.Platform.MSRFile(i)
		// Program the limit register (read-only to software in spirit;
		// vendors would fuse it).
		f.Poke(msr.VoltageOffsetLimit, uint64(int64(c.LimitMV))&0xFFFF)
		id := f.AddWriteHook(msr.OCMailbox, func(_ *msr.File, old, v uint64) (uint64, error) {
			d := msr.DecodeVoltageOffset(v)
			if d.Busy && d.Write && d.Plane == msr.PlaneCore && d.OffsetMV < c.LimitMV {
				c.Clamped++
				return msr.EncodeVoltageOffset(c.LimitMV, d.Plane), nil
			}
			return v, nil
		})
		c.hookIDs = append(c.hookIDs, id)
	}
	c.installed = true
	return nil
}

// Uninstall implements Countermeasure.
func (c *ClampMSR) Uninstall(env *Env) error {
	if !c.installed {
		return nil
	}
	for i, id := range c.hookIDs {
		env.Platform.MSRFile(i).RemoveWriteHook(msr.OCMailbox, id)
	}
	c.hookIDs = nil
	c.installed = false
	return nil
}

// AllowsBenignDVFS implements Countermeasure.
func (*ClampMSR) AllowsBenignDVFS() bool { return true }

// HardwareLevel implements Countermeasure.
func (*ClampMSR) HardwareLevel() bool { return true }
