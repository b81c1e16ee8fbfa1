// Package catalog is the canonical phrase vocabulary shared by the log
// generator (internal/logsim), the phrase labeler (internal/label) and
// the evaluation harnesses. Every entry is a *static* phrase in the
// paper's sense (§3.1, Table 2): the constant message subphrase left
// after the variable components (error ids, addresses, PIDs) are masked
// out.
//
// Labels follow Table 3: Safe phrases are definitely benign, Error
// phrases definitely indicate an anomaly (terminal messages or major
// malfunctions), and Unknown phrases may or may not be part of a failure
// chain depending on context (§4.3, Table 8).
//
// Each entry carries a renderable Template ("*" marks a dynamic slot)
// and a canonical Key computed by applying Mask to the template — the
// same function internal/logparse applies to raw messages — so rendered
// lines round-trip exactly back to their catalog key. Static template
// text must therefore be digit-free; two paper phrases were renamed to
// honor that (Wait4Boot → WaitForBoot, e1000e → eth).
package catalog

import "fmt"

// Label is the Table-3 phrase category.
type Label int

const (
	Safe Label = iota
	Unknown
	Error
)

func (l Label) String() string {
	switch l {
	case Safe:
		return "Safe"
	case Unknown:
		return "Unknown"
	case Error:
		return "Error"
	}
	return fmt.Sprintf("Label(%d)", int(l))
}

// Class is the Table-7 node-failure class a phrase is most associated
// with. ClassNone marks generic phrases that appear across classes.
type Class int

const (
	ClassNone Class = iota
	ClassJob
	ClassMCE
	ClassFS
	ClassTraps
	ClassHardware
	ClassPanic
)

// Classes lists the six failure classes in Table-7 order.
var Classes = []Class{ClassJob, ClassMCE, ClassFS, ClassTraps, ClassHardware, ClassPanic}

func (c Class) String() string {
	switch c {
	case ClassNone:
		return "None"
	case ClassJob:
		return "Job"
	case ClassMCE:
		return "MCE"
	case ClassFS:
		return "FileSystem"
	case ClassTraps:
		return "Traps"
	case ClassHardware:
		return "Hardware"
	case ClassPanic:
		return "Panic"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Phrase is one catalog entry.
type Phrase struct {
	// Template is the renderable form; "*" marks a dynamic slot the
	// generator fills with a digit-bearing fragment.
	Template string
	// Key is the canonical static phrase: Mask(Template). Computed at
	// package init; Mask returns this very string for a known phrase.
	Key string
	// Label is the Table-3 category.
	Label Label
	// Terminal marks messages that indicate a node going down — the
	// anchors failure chains are formed around (§3.1).
	Terminal bool
	// Class is the failure class this phrase is characteristic of.
	Class Class
}

// Catalog is the full vocabulary. Order is stable; the runtime encoder
// in internal/logparse assigns ids by first appearance in a log.
var Catalog = []Phrase{
	// --- Safe background phrases (Table 3 column 1 plus routine noise).
	{Template: "Mounting NID specific", Label: Safe},
	{Template: "cpu * apic_timer_irqs", Label: Safe},
	{Template: "Setting flag", Label: Safe},
	{Template: "WaitForBoot", Label: Safe},
	{Template: "Sending ec node info with boot code", Label: Safe},
	{Template: "Running * using values from /etc/sysctl.conf", Label: Safe},
	{Template: "kernel LNet: hardware quiesce * All threads awake", Label: Safe},
	{Template: "nscd: nss_ldap reconnected", Label: Safe},
	{Template: "Lustre: * connected to *", Label: Safe},
	{Template: "RCA event received svc id *", Label: Safe},
	{Template: "System health check heartbeat ok seq *", Label: Safe},
	{Template: "slurmd: launched task * for job *", Label: Safe},
	{Template: "DVS: mount point established for *", Label: Safe},
	{Template: "ntpd: clock synchronized stratum *", Label: Safe},
	{Template: "console login session opened for user *", Label: Safe},
	{Template: "ALPS: apinit placed app * on node", Label: Safe},
	{Template: "kernel: eth link up speed * Mbps", Label: Safe},
	{Template: "Lustre: recovery complete for target *", Label: Safe},

	// --- Unknown phrases (Table 8 plus the Table 9 sequences).
	{Template: "LustreError: * failed md_getattr err *", Label: Unknown, Class: ClassFS},
	{Template: "Out of memory: Killed process *", Label: Unknown, Class: ClassJob},
	{Template: "LNet: Critical hardware error *", Label: Unknown, Class: ClassHardware},
	{Template: "Slurm load partitions error: Unable to contact slurm controller *", Label: Unknown, Class: ClassJob},
	{Template: "hwerr[*]: Correctable AER_BAD_TLP Error *", Label: Unknown, Class: ClassHardware},
	{Template: "Sent shutdown to llmrd at process *", Label: Unknown, Class: ClassJob},
	{Template: "AER: Multiple corrected error recvd *", Label: Unknown, Class: ClassHardware},
	{Template: "Trap invalid code * Error *", Label: Unknown, Class: ClassTraps},
	{Template: "modprobe: Fatal: Module * not found *", Label: Unknown, Class: ClassTraps},
	{Template: "<node_health> * Warning: program * returned with exit code *", Label: Unknown, Class: ClassJob},
	{Template: "DVS: Verify Filesystem *", Label: Unknown, Class: ClassFS},
	{Template: "BUG: unable to handle kernel NULL pointer dereference at *", Label: Unknown, Class: ClassPanic},
	{Template: "CPU *: Machine Check Exception:", Label: Unknown, Class: ClassMCE},
	{Template: "[Hardware Error]: Run the above through mcelog --ascii *", Label: Unknown, Class: ClassMCE},
	{Template: "[Hardware Error]: RIP !INEXACT! at *", Label: Unknown, Class: ClassMCE},
	{Template: "mce_notify_irq: machine check event logged *", Label: Unknown, Class: ClassMCE},
	{Template: "Corrected Memory Errors on Page *", Label: Unknown, Class: ClassMCE},
	{Template: "Corrected DIMM Memory Errors on node *", Label: Unknown, Class: ClassMCE},
	{Template: "PCIe Bus Error: severity=Corrected id *", Label: Unknown},
	{Template: "LNet: No gnilnd traffic received from * seconds", Label: Unknown, Class: ClassHardware},
	{Template: "LNet: * gnilnd:kgnilnd reaper dgram check", Label: Unknown},
	{Template: "hwerr *:ssid rsp a status msg protocol err error *", Label: Unknown, Class: ClassHardware},
	{Template: "hwerr * Correctable aer replay timer timeout error *", Label: Unknown, Class: ClassHardware},
	{Template: "DVS: * no servers functioning properly", Label: Unknown, Class: ClassFS},
	{Template: "[Gsockets] debug [*]: critical hardware error *", Label: Unknown, Class: ClassHardware},
	{Template: "Lustre: * binary changelog record skipped *", Label: Unknown, Class: ClassFS},
	{Template: "LustreError: Skipped * previous similar messages", Label: Unknown, Class: ClassFS},
	{Template: "Lustre: lock timed out on target * resending", Label: Unknown, Class: ClassFS},
	{Template: "LNetError: packet protocol version mismatch from *", Label: Unknown, Class: ClassFS},
	{Template: "Startproc: nss_ldap: could not search LDAP server *", Label: Unknown},
	{Template: "Slurmd Stopped on node *", Label: Unknown, Class: ClassJob},
	{Template: "slurmctld: agent retry delayed for node *", Label: Unknown, Class: ClassJob},
	{Template: "ALPS: apsched reservation * failed claim", Label: Unknown, Class: ClassJob},
	{Template: "general protection fault ip * sp * in libc", Label: Unknown, Class: ClassTraps},
	{Template: "segfault at * ip * sp * error *", Label: Unknown, Class: ClassTraps},
	{Template: "traps: * trap invalid opcode ip *", Label: Unknown, Class: ClassTraps},
	{Template: "kernel: do_trap: * using obsolete handler *", Label: Unknown, Class: ClassTraps},
	{Template: "node heartbeat miss count * for nic *", Label: Unknown, Class: ClassHardware},
	{Template: "HSN ORB timeout detected on channel *", Label: Unknown, Class: ClassHardware},
	{Template: "soft lockup CPU * stuck for * seconds", Label: Unknown, Class: ClassPanic},
	{Template: "INFO: rcu_sched self-detected stall on CPU *", Label: Unknown, Class: ClassPanic},
	{Template: "<node_health> * failures: suspect list updated *", Label: Unknown},
	{Template: "mcelog: failed to prefill DIMM database *", Label: Unknown, Class: ClassMCE},
	{Template: "hwerr[*]: LB lcb lane degrade detected *", Label: Unknown, Class: ClassHardware},

	// --- Error phrases (Table 3 column 3: terminal messages and major
	// malfunctions).
	{Template: "WARNING: Node * is down", Label: Error, Terminal: true},
	{Template: "Debug NMI detected on node *", Label: Error, Class: ClassHardware},
	{Template: "cb_node_unavailable *", Label: Error, Terminal: true},
	{Template: "Kernel panic - not syncing: Fatal Machine check *", Label: Error, Class: ClassMCE},
	{Template: "Kernel panic - not syncing: Attempted to kill init *", Label: Error, Class: ClassPanic},
	{Template: "Kernel panic - not syncing: softlockup hung tasks *", Label: Error, Class: ClassPanic},
	{Template: "Call Trace: *", Label: Error, Class: ClassPanic},
	{Template: "Stack trace for task * follows", Label: Error, Class: ClassPanic},
	{Template: "Stop NMI detected on node *", Label: Error, Terminal: true, Class: ClassHardware},
	{Template: "System: halted node *", Label: Error, Terminal: true},
	{Template: "Shutdown event received for node *", Label: Error, Terminal: true},
	{Template: "BUG: soft lockup detected CPU * kernel oops", Label: Error, Class: ClassPanic},
	{Template: "EXT error: page fault oops in kernel mode at *", Label: Error, Class: ClassTraps},
	{Template: "NMI watchdog fatal fault on cpu *", Label: Error, Class: ClassHardware},
	{Template: "node health fatal: heartbeat lost for node *", Label: Error, Class: ClassHardware},
	{Template: "LustreError: fatal: client evicted by server *", Label: Error, Class: ClassFS},
	{Template: "slurmctld: fatal: node * not responding setting DOWN", Label: Error, Class: ClassJob},
}

var index = func() map[string]int {
	m := make(map[string]int, len(Catalog))
	for i := range Catalog {
		// Not Mask: Mask interns against this very map.
		Catalog[i].Key = string(appendMasked(nil, Catalog[i].Template))
		key := Catalog[i].Key
		if key == "" || key == "*" {
			panic("catalog: template masks to a degenerate key: " + Catalog[i].Template)
		}
		if _, dup := m[key]; dup {
			panic("catalog: duplicate masked key " + key)
		}
		m[key] = i
	}
	return m
}()

// Lookup returns the catalog entry for a masked phrase key — a static
// entry when the key is known at build time, or a runtime-extension
// entry registered with Extend. Known phrases never touch the
// extension lock.
func Lookup(key string) (Phrase, bool) {
	i, ok := index[key]
	if !ok {
		return lookupExt(key)
	}
	return Catalog[i], true
}

// Keys returns the masked keys of all catalog entries matching the
// filter (nil matches all), in catalog order.
func Keys(filter func(Phrase) bool) []string {
	var out []string
	for _, p := range Catalog {
		if filter == nil || filter(p) {
			out = append(out, p.Key)
		}
	}
	return out
}

// Terminals returns the terminal-message keys.
func Terminals() []string {
	return Keys(func(p Phrase) bool { return p.Terminal })
}
