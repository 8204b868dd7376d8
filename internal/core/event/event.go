// Package event defines the PDT event model: event identifiers, event
// groups, and the per-event metadata table that is the single source of
// truth for record arity, argument names, and pretty-printing. The trace
// writer, the trace reader, and the analyzer all consume this table, so
// encoder and decoder can never disagree about a record's shape.
package event

import "fmt"

// Group classifies events for configuration (the paper's PDT enables or
// disables whole groups via its configuration file).
type Group uint16

const (
	GroupLifecycle Group = 1 << iota // SPE program / context lifecycle
	GroupMFC                         // DMA commands and tag waits
	GroupMailbox                     // mailbox reads/writes, both sides
	GroupSignal                      // signal-notification registers
	GroupAtomic                      // atomic (reservation) operations
	GroupSync                        // barriers, mutexes, work queues
	GroupUser                        // application-defined events
	GroupHost                        // PPE-side libspe-style calls
	GroupOverhead                    // PDT's own buffer flushes

	// GroupAll enables everything.
	GroupAll Group = 1<<iota - 1
)

var groupNames = map[Group]string{
	GroupLifecycle: "lifecycle",
	GroupMFC:       "mfc",
	GroupMailbox:   "mailbox",
	GroupSignal:    "signal",
	GroupAtomic:    "atomic",
	GroupSync:      "sync",
	GroupUser:      "user",
	GroupHost:      "host",
	GroupOverhead:  "overhead",
}

// String returns the configuration name of a single group, or a combined
// form for masks.
func (g Group) String() string {
	if s, ok := groupNames[g]; ok {
		return s
	}
	if g == GroupAll {
		return "all"
	}
	s := ""
	for bit := Group(1); bit < GroupAll; bit <<= 1 {
		if g&bit != 0 {
			if s != "" {
				s += "|"
			}
			s += groupNames[bit]
		}
	}
	if s == "" {
		return fmt.Sprintf("group(%#x)", uint16(g))
	}
	return s
}

// ParseGroup resolves a configuration name to a group bit.
func ParseGroup(name string) (Group, bool) {
	if name == "all" {
		return GroupAll, true
	}
	for g, n := range groupNames {
		if n == name {
			return g, true
		}
	}
	return 0, false
}

// Groups lists the individual group bits in declaration order.
func Groups() []Group {
	return []Group{
		GroupLifecycle, GroupMFC, GroupMailbox, GroupSignal, GroupAtomic,
		GroupSync, GroupUser, GroupHost, GroupOverhead,
	}
}

// Kind distinguishes instantaneous events from interval boundaries; the
// analyzer pairs Enter/Exit events of the same ID family into intervals.
type Kind uint8

const (
	KindPoint Kind = iota
	KindEnter
	KindExit
)

// ID identifies one event type.
type ID uint16

// SPE-side events.
const (
	idInvalid ID = iota

	SPEProgramStart // args: nameRef
	SPEProgramEnd   // args: exitCode

	SPEMFCGet     // args: lsOff, ea, size, tag
	SPEMFCPut     // args: lsOff, ea, size, tag
	SPEMFCGetList // args: lsOff, nElems, totalSize, tag
	SPEMFCPutList // args: lsOff, nElems, totalSize, tag

	SPEWaitTagEnter // args: mask
	SPEWaitTagExit  // args: mask, completed

	SPEReadInMboxEnter   // args: -
	SPEReadInMboxExit    // args: value
	SPEWriteOutMboxEnter // args: value
	SPEWriteOutMboxExit  // args: value
	SPEWriteIntrMboxEnter
	SPEWriteIntrMboxExit // args: value

	SPEReadSignalEnter // args: reg
	SPEReadSignalExit  // args: reg, value

	SPEAtomicEnter // args: op (0=cas,1=add), ea
	SPEAtomicExit  // args: op, result

	SPEUserEvent // args: id, a0, a1
	SPEUserLog   // args: -, string payload

	SPETraceFlush // args: bytes, cycles (overhead group)

	// Sync library events (emitted from cellsync through the user API).
	SyncBarrierEnter // args: barrierID
	SyncBarrierExit  // args: barrierID
	SyncMutexEnter   // args: ea
	SyncMutexAcquired
	SyncMutexRelease // args: ea
	SyncWQGetEnter   // args: queueID
	SyncWQGetExit    // args: queueID, item
	SyncWQPut        // args: queueID, item

	// PPE-side events.
	PPESPEStart // args: spe, nameRef
	PPEWaitEnter
	PPEWaitExit // args: spe, exitCode
	PPEWriteInMboxEnter
	PPEWriteInMboxExit // args: spe, value
	PPEReadOutMboxEnter
	PPEReadOutMboxExit // args: spe, value
	PPEReadIntrMboxEnter
	PPEReadIntrMboxExit // args: spe, value
	PPEWriteSignal      // args: spe, reg, value
	PPEAtomicEnter      // args: op, ea
	PPEAtomicExit       // args: op, result
	PPEUserEvent        // args: id, a0, a1
	PPEUserLog          // args: -, string payload

	// StringDef interns a string: args: ref; payload: the string.
	StringDef

	// SPESndsig is an SPE-issued signal-notification send (mfc_sndsig).
	SPESndsig // args: targetSPE, reg, value

	// PPE-side proxy DMA commands (spe_mfcio_get/put) and proxy tag wait.
	PPEDMAGet       // args: spe, lsOff, ea, size, tag
	PPEDMAPut       // args: spe, lsOff, ea, size, tag
	PPEWaitTagEnter // args: spe, mask
	PPEWaitTagExit  // args: spe, mask

	// LiveAnchor carries a clock anchor in-band: live streams emit one
	// as each SPE run starts, because their metadata was written before
	// any run existed. args: spe, timebase, loaded; payload: program.
	LiveAnchor

	// MaxID is the exclusive upper bound of valid IDs.
	MaxID
)

// Info describes one event type.
type Info struct {
	ID    ID
	Name  string
	Group Group
	Kind  Kind
	Args  []string // argument names; len is the record arity
	// Pair links Enter events to their Exit ID (and vice versa).
	Pair ID
}

// table is indexed by ID.
var table = [MaxID]Info{
	SPEProgramStart: {Name: "SPE_PROGRAM_START", Group: GroupLifecycle, Kind: KindPoint, Args: []string{"nameRef"}},
	SPEProgramEnd:   {Name: "SPE_PROGRAM_END", Group: GroupLifecycle, Kind: KindPoint, Args: []string{"exitCode"}},

	SPEMFCGet:     {Name: "SPE_MFC_GET", Group: GroupMFC, Kind: KindPoint, Args: []string{"lsOff", "ea", "size", "tag"}},
	SPEMFCPut:     {Name: "SPE_MFC_PUT", Group: GroupMFC, Kind: KindPoint, Args: []string{"lsOff", "ea", "size", "tag"}},
	SPEMFCGetList: {Name: "SPE_MFC_GETL", Group: GroupMFC, Kind: KindPoint, Args: []string{"lsOff", "nElems", "totalSize", "tag"}},
	SPEMFCPutList: {Name: "SPE_MFC_PUTL", Group: GroupMFC, Kind: KindPoint, Args: []string{"lsOff", "nElems", "totalSize", "tag"}},

	SPEWaitTagEnter: {Name: "SPE_WAIT_TAG_ENTER", Group: GroupMFC, Kind: KindEnter, Args: []string{"mask"}, Pair: SPEWaitTagExit},
	SPEWaitTagExit:  {Name: "SPE_WAIT_TAG_EXIT", Group: GroupMFC, Kind: KindExit, Args: []string{"mask", "completed"}, Pair: SPEWaitTagEnter},

	SPEReadInMboxEnter:    {Name: "SPE_READ_IN_MBOX_ENTER", Group: GroupMailbox, Kind: KindEnter, Pair: SPEReadInMboxExit},
	SPEReadInMboxExit:     {Name: "SPE_READ_IN_MBOX_EXIT", Group: GroupMailbox, Kind: KindExit, Args: []string{"value"}, Pair: SPEReadInMboxEnter},
	SPEWriteOutMboxEnter:  {Name: "SPE_WRITE_OUT_MBOX_ENTER", Group: GroupMailbox, Kind: KindEnter, Args: []string{"value"}, Pair: SPEWriteOutMboxExit},
	SPEWriteOutMboxExit:   {Name: "SPE_WRITE_OUT_MBOX_EXIT", Group: GroupMailbox, Kind: KindExit, Args: []string{"value"}, Pair: SPEWriteOutMboxEnter},
	SPEWriteIntrMboxEnter: {Name: "SPE_WRITE_INTR_MBOX_ENTER", Group: GroupMailbox, Kind: KindEnter, Args: []string{"value"}, Pair: SPEWriteIntrMboxExit},
	SPEWriteIntrMboxExit:  {Name: "SPE_WRITE_INTR_MBOX_EXIT", Group: GroupMailbox, Kind: KindExit, Args: []string{"value"}, Pair: SPEWriteIntrMboxEnter},

	SPEReadSignalEnter: {Name: "SPE_READ_SIGNAL_ENTER", Group: GroupSignal, Kind: KindEnter, Args: []string{"reg"}, Pair: SPEReadSignalExit},
	SPEReadSignalExit:  {Name: "SPE_READ_SIGNAL_EXIT", Group: GroupSignal, Kind: KindExit, Args: []string{"reg", "value"}, Pair: SPEReadSignalEnter},

	SPEAtomicEnter: {Name: "SPE_ATOMIC_ENTER", Group: GroupAtomic, Kind: KindEnter, Args: []string{"op", "ea"}, Pair: SPEAtomicExit},
	SPEAtomicExit:  {Name: "SPE_ATOMIC_EXIT", Group: GroupAtomic, Kind: KindExit, Args: []string{"op", "result"}, Pair: SPEAtomicEnter},

	SPEUserEvent: {Name: "SPE_USER_EVENT", Group: GroupUser, Kind: KindPoint, Args: []string{"id", "a0", "a1"}},
	SPEUserLog:   {Name: "SPE_USER_LOG", Group: GroupUser, Kind: KindPoint},

	SPETraceFlush: {Name: "SPE_TRACE_FLUSH", Group: GroupOverhead, Kind: KindPoint, Args: []string{"bytes", "cycles"}},

	SyncBarrierEnter:  {Name: "SYNC_BARRIER_ENTER", Group: GroupSync, Kind: KindEnter, Args: []string{"barrierID"}, Pair: SyncBarrierExit},
	SyncBarrierExit:   {Name: "SYNC_BARRIER_EXIT", Group: GroupSync, Kind: KindExit, Args: []string{"barrierID"}, Pair: SyncBarrierEnter},
	SyncMutexEnter:    {Name: "SYNC_MUTEX_ENTER", Group: GroupSync, Kind: KindEnter, Args: []string{"ea"}, Pair: SyncMutexAcquired},
	SyncMutexAcquired: {Name: "SYNC_MUTEX_ACQUIRED", Group: GroupSync, Kind: KindExit, Args: []string{"ea"}, Pair: SyncMutexEnter},
	SyncMutexRelease:  {Name: "SYNC_MUTEX_RELEASE", Group: GroupSync, Kind: KindPoint, Args: []string{"ea"}},
	SyncWQGetEnter:    {Name: "SYNC_WQ_GET_ENTER", Group: GroupSync, Kind: KindEnter, Args: []string{"queueID"}, Pair: SyncWQGetExit},
	SyncWQGetExit:     {Name: "SYNC_WQ_GET_EXIT", Group: GroupSync, Kind: KindExit, Args: []string{"queueID", "item"}, Pair: SyncWQGetEnter},
	SyncWQPut:         {Name: "SYNC_WQ_PUT", Group: GroupSync, Kind: KindPoint, Args: []string{"queueID", "item"}},

	PPESPEStart:          {Name: "PPE_SPE_START", Group: GroupHost, Kind: KindPoint, Args: []string{"spe", "nameRef"}},
	PPEWaitEnter:         {Name: "PPE_WAIT_ENTER", Group: GroupHost, Kind: KindEnter, Args: []string{"spe"}, Pair: PPEWaitExit},
	PPEWaitExit:          {Name: "PPE_WAIT_EXIT", Group: GroupHost, Kind: KindExit, Args: []string{"spe", "exitCode"}, Pair: PPEWaitEnter},
	PPEWriteInMboxEnter:  {Name: "PPE_WRITE_IN_MBOX_ENTER", Group: GroupHost, Kind: KindEnter, Args: []string{"spe", "value"}, Pair: PPEWriteInMboxExit},
	PPEWriteInMboxExit:   {Name: "PPE_WRITE_IN_MBOX_EXIT", Group: GroupHost, Kind: KindExit, Args: []string{"spe", "value"}, Pair: PPEWriteInMboxEnter},
	PPEReadOutMboxEnter:  {Name: "PPE_READ_OUT_MBOX_ENTER", Group: GroupHost, Kind: KindEnter, Args: []string{"spe"}, Pair: PPEReadOutMboxExit},
	PPEReadOutMboxExit:   {Name: "PPE_READ_OUT_MBOX_EXIT", Group: GroupHost, Kind: KindExit, Args: []string{"spe", "value"}, Pair: PPEReadOutMboxEnter},
	PPEReadIntrMboxEnter: {Name: "PPE_READ_INTR_MBOX_ENTER", Group: GroupHost, Kind: KindEnter, Args: []string{"spe"}, Pair: PPEReadIntrMboxExit},
	PPEReadIntrMboxExit:  {Name: "PPE_READ_INTR_MBOX_EXIT", Group: GroupHost, Kind: KindExit, Args: []string{"spe", "value"}, Pair: PPEReadIntrMboxEnter},
	PPEWriteSignal:       {Name: "PPE_WRITE_SIGNAL", Group: GroupHost, Kind: KindPoint, Args: []string{"spe", "reg", "value"}},
	PPEAtomicEnter:       {Name: "PPE_ATOMIC_ENTER", Group: GroupAtomic, Kind: KindEnter, Args: []string{"op", "ea"}, Pair: PPEAtomicExit},
	PPEAtomicExit:        {Name: "PPE_ATOMIC_EXIT", Group: GroupAtomic, Kind: KindExit, Args: []string{"op", "result"}, Pair: PPEAtomicEnter},
	PPEUserEvent:         {Name: "PPE_USER_EVENT", Group: GroupUser, Kind: KindPoint, Args: []string{"id", "a0", "a1"}},
	PPEUserLog:           {Name: "PPE_USER_LOG", Group: GroupUser, Kind: KindPoint},

	StringDef: {Name: "STRING_DEF", Group: GroupLifecycle, Kind: KindPoint, Args: []string{"ref"}},

	SPESndsig: {Name: "SPE_SNDSIG", Group: GroupSignal, Kind: KindPoint, Args: []string{"targetSPE", "reg", "value"}},

	PPEDMAGet:       {Name: "PPE_DMA_GET", Group: GroupHost, Kind: KindPoint, Args: []string{"spe", "lsOff", "ea", "size", "tag"}},
	PPEDMAPut:       {Name: "PPE_DMA_PUT", Group: GroupHost, Kind: KindPoint, Args: []string{"spe", "lsOff", "ea", "size", "tag"}},
	PPEWaitTagEnter: {Name: "PPE_WAIT_TAG_ENTER", Group: GroupHost, Kind: KindEnter, Args: []string{"spe", "mask"}, Pair: PPEWaitTagExit},
	PPEWaitTagExit:  {Name: "PPE_WAIT_TAG_EXIT", Group: GroupHost, Kind: KindExit, Args: []string{"spe", "mask"}, Pair: PPEWaitTagEnter},

	LiveAnchor: {Name: "LIVE_ANCHOR", Group: GroupOverhead, Kind: KindPoint, Args: []string{"spe", "timebase", "loaded"}},
}

func init() {
	for id := ID(1); id < MaxID; id++ {
		table[id].ID = id
		if table[id].Name == "" {
			panic(fmt.Sprintf("event: missing metadata for ID %d", id))
		}
	}
}

// Lookup returns the metadata for id; ok is false for unknown IDs.
func Lookup(id ID) (Info, bool) {
	if id == idInvalid || id >= MaxID {
		return Info{}, false
	}
	return table[id], true
}

// MustLookup returns the metadata for id, panicking on unknown IDs.
func MustLookup(id ID) Info {
	info, ok := Lookup(id)
	if !ok {
		panic(fmt.Sprintf("event: unknown event ID %d", id))
	}
	return info
}

// ByName resolves an event name (as in configuration files).
func ByName(name string) (Info, bool) {
	for id := ID(1); id < MaxID; id++ {
		if table[id].Name == name {
			return table[id], true
		}
	}
	return Info{}, false
}

// All returns metadata for every defined event, in ID order.
func All() []Info {
	out := make([]Info, 0, int(MaxID)-1)
	for id := ID(1); id < MaxID; id++ {
		out = append(out, table[id])
	}
	return out
}

func (id ID) String() string {
	if info, ok := Lookup(id); ok {
		return info.Name
	}
	return fmt.Sprintf("EVENT_%d", uint16(id))
}
