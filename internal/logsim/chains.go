package logsim

import (
	"fmt"

	"desh/internal/catalog"
)

// ChainTemplate is an ordered failure-chain recipe for one failure
// class: the phrase keys emitted on the failing node, ending in a
// terminal message, plus the lead-time distribution from the first
// phrase to the terminal one. Lead means reproduce Table 7; the
// per-class standard deviations are deliberately smaller than the
// cross-class spread (Observation 4).
type ChainTemplate struct {
	Class    catalog.Class
	Phrases  []string // catalog keys; last entry must be Terminal
	LeadMean float64  // seconds
	LeadStd  float64  // seconds
}

// chainTemplates returns the built-in chain recipes, two variants per
// class for intra-class diversity.
func chainTemplates() []ChainTemplate {
	k := func(template string) string { return mustKey(template) }
	return []ChainTemplate{
		{
			Class: catalog.ClassJob, LeadMean: 81.5, LeadStd: 14,
			Phrases: []string{
				k("Slurm load partitions error: Unable to contact slurm controller *"),
				k("slurmctld: agent retry delayed for node *"),
				k("<node_health> * Warning: program * returned with exit code *"),
				k("Out of memory: Killed process *"),
				k("Slurmd Stopped on node *"),
				k("slurmctld: fatal: node * not responding setting DOWN"),
				k("Shutdown event received for node *"),
			},
		},
		{
			Class: catalog.ClassJob, LeadMean: 81.5, LeadStd: 14,
			Phrases: []string{
				k("ALPS: apsched reservation * failed claim"),
				k("Sent shutdown to llmrd at process *"),
				k("<node_health> * Warning: program * returned with exit code *"),
				k("Out of memory: Killed process *"),
				k("Slurmd Stopped on node *"),
				k("System: halted node *"),
			},
		},
		{
			Class: catalog.ClassMCE, LeadMean: 160.3, LeadStd: 24,
			Phrases: []string{
				k("mce_notify_irq: machine check event logged *"),
				k("CPU *: Machine Check Exception:"),
				k("[Hardware Error]: Run the above through mcelog --ascii *"),
				k("[Hardware Error]: RIP !INEXACT! at *"),
				k("Corrected Memory Errors on Page *"),
				k("Kernel panic - not syncing: Fatal Machine check *"),
				k("Call Trace: *"),
				k("cb_node_unavailable *"),
			},
		},
		{
			Class: catalog.ClassMCE, LeadMean: 160.3, LeadStd: 24,
			Phrases: []string{
				k("Corrected DIMM Memory Errors on node *"),
				k("mcelog: failed to prefill DIMM database *"),
				k("CPU *: Machine Check Exception:"),
				k("[Hardware Error]: Run the above through mcelog --ascii *"),
				k("Corrected Memory Errors on Page *"),
				k("Kernel panic - not syncing: Fatal Machine check *"),
				k("WARNING: Node * is down"),
			},
		},
		{
			Class: catalog.ClassFS, LeadMean: 119.3, LeadStd: 20,
			Phrases: []string{
				k("LustreError: * failed md_getattr err *"),
				k("LustreError: Skipped * previous similar messages"),
				k("Lustre: lock timed out on target * resending"),
				k("DVS: Verify Filesystem *"),
				k("DVS: * no servers functioning properly"),
				k("LustreError: fatal: client evicted by server *"),
				k("WARNING: Node * is down"),
			},
		},
		{
			Class: catalog.ClassFS, LeadMean: 119.3, LeadStd: 20,
			Phrases: []string{
				k("LNetError: packet protocol version mismatch from *"),
				k("LustreError: * failed md_getattr err *"),
				k("DVS: Verify Filesystem *"),
				k("Lustre: * binary changelog record skipped *"),
				k("LustreError: fatal: client evicted by server *"),
				k("Shutdown event received for node *"),
			},
		},
		{
			Class: catalog.ClassTraps, LeadMean: 115.7, LeadStd: 19,
			Phrases: []string{
				k("segfault at * ip * sp * error *"),
				k("traps: * trap invalid opcode ip *"),
				k("Trap invalid code * Error *"),
				k("kernel: do_trap: * using obsolete handler *"),
				k("EXT error: page fault oops in kernel mode at *"),
				k("WARNING: Node * is down"),
			},
		},
		{
			Class: catalog.ClassTraps, LeadMean: 115.7, LeadStd: 19,
			Phrases: []string{
				k("general protection fault ip * sp * in libc"),
				k("segfault at * ip * sp * error *"),
				k("modprobe: Fatal: Module * not found *"),
				k("EXT error: page fault oops in kernel mode at *"),
				k("System: halted node *"),
			},
		},
		{
			Class: catalog.ClassHardware, LeadMean: 124.3, LeadStd: 21,
			Phrases: []string{
				k("hwerr[*]: Correctable AER_BAD_TLP Error *"),
				k("AER: Multiple corrected error recvd *"),
				k("LNet: Critical hardware error *"),
				k("node heartbeat miss count * for nic *"),
				k("node health fatal: heartbeat lost for node *"),
				k("Stop NMI detected on node *"),
			},
		},
		{
			Class: catalog.ClassHardware, LeadMean: 124.3, LeadStd: 21,
			Phrases: []string{
				k("HSN ORB timeout detected on channel *"),
				k("hwerr *:ssid rsp a status msg protocol err error *"),
				k("hwerr[*]: LB lcb lane degrade detected *"),
				k("[Gsockets] debug [*]: critical hardware error *"),
				k("Debug NMI detected on node *"),
				k("NMI watchdog fatal fault on cpu *"),
				k("Stop NMI detected on node *"),
			},
		},
		{
			Class: catalog.ClassPanic, LeadMean: 58.9, LeadStd: 11,
			Phrases: []string{
				k("soft lockup CPU * stuck for * seconds"),
				k("BUG: soft lockup detected CPU * kernel oops"),
				k("Kernel panic - not syncing: softlockup hung tasks *"),
				k("Stack trace for task * follows"),
				k("Call Trace: *"),
				k("cb_node_unavailable *"),
			},
		},
		{
			Class: catalog.ClassPanic, LeadMean: 58.9, LeadStd: 11,
			Phrases: []string{
				k("BUG: unable to handle kernel NULL pointer dereference at *"),
				k("INFO: rcu_sched self-detected stall on CPU *"),
				k("Kernel panic - not syncing: Attempted to kill init *"),
				k("Call Trace: *"),
				k("WARNING: Node * is down"),
			},
		},
	}
}

// maskedTemplates returns "soft" masked-fault recipes: anomalous phrase
// runs that never terminate in a node failure (Table 9 columns 3 and 4).
// Hard negatives — prefixes of real chains — are built separately from
// chainTemplates.
func maskedTemplates() [][]string {
	k := func(template string) string { return mustKey(template) }
	return [][]string{
		{
			k("nscd: nss_ldap reconnected"),
			k("<node_health> * Warning: program * returned with exit code *"),
			k("Trap invalid code * Error *"),
			k("Out of memory: Killed process *"),
			k("hwerr *:ssid rsp a status msg protocol err error *"),
			k("Corrected Memory Errors on Page *"),
			k("<node_health> * failures: suspect list updated *"),
		},
		{
			k("LustreError: Skipped * previous similar messages"),
			k("hwerr[*]: Correctable AER_BAD_TLP Error *"),
			k("Corrected DIMM Memory Errors on node *"),
			k("mce_notify_irq: machine check event logged *"),
			k("kernel LNet: hardware quiesce * All threads awake"),
			k("Lustre: * connected to *"),
		},
		{
			k("PCIe Bus Error: severity=Corrected id *"),
			k("AER: Multiple corrected error recvd *"),
			k("LNet: * gnilnd:kgnilnd reaper dgram check"),
			k("Startproc: nss_ldap: could not search LDAP server *"),
		},
		{
			k("LustreError: * failed md_getattr err *"),
			k("DVS: * no servers functioning properly"),
			k("Trap invalid code * Error *"),
			k("Out of memory: Killed process *"),
			k("Lustre: * binary changelog record skipped *"),
			k("Lustre: recovery complete for target *"),
		},
	}
}

// safeMotifs returns the benign background sequences nodes emit
// routinely (boot, job launch, filesystem mount, network, health
// checks). Real system logs are highly repetitive; emitting Safe noise
// as ordered motifs rather than isolated random phrases reproduces the
// sequence structure that gives Phase-1 next-phrase prediction its
// ~85% accuracy in the paper.
func safeMotifs() [][]string {
	k := func(template string) string { return mustKey(template) }
	return [][]string{
		{
			k("WaitForBoot"),
			k("Setting flag"),
			k("Mounting NID specific"),
			k("Sending ec node info with boot code"),
			k("RCA event received svc id *"),
		},
		{
			k("slurmd: launched task * for job *"),
			k("ALPS: apinit placed app * on node"),
			k("console login session opened for user *"),
			k("cpu * apic_timer_irqs"),
		},
		{
			k("DVS: mount point established for *"),
			k("Lustre: * connected to *"),
			k("Lustre: recovery complete for target *"),
		},
		{
			k("kernel: eth link up speed * Mbps"),
			k("ntpd: clock synchronized stratum *"),
			k("nscd: nss_ldap reconnected"),
		},
		{
			k("System health check heartbeat ok seq *"),
			k("Running * using values from /etc/sysctl.conf"),
			k("kernel LNet: hardware quiesce * All threads awake"),
		},
	}
}

// mustKey resolves a template to its catalog key, panicking on typos —
// these tables are package-internal constants, so failing fast at init
// is the right behaviour.
func mustKey(template string) string {
	key := catalog.Mask(template)
	if _, ok := catalog.Lookup(key); !ok {
		panic(fmt.Sprintf("logsim: template %q not in catalog", template))
	}
	return key
}
