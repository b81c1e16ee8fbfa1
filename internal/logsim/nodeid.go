package logsim

import (
	"fmt"
	"strconv"
)

// Cray node ids encode the physical location (§4.5): cA-BcCsSnN means
// cabinet column A, cabinet row B, chassis C, slot (blade) S, node N.
// One cabinet holds 3 chassis x 16 slots x 4 nodes = 192 nodes.
const (
	nodesPerSlot    = 4
	slotsPerChassis = 16
	chassisPerCab   = 3
	nodesPerCabinet = nodesPerSlot * slotsPerChassis * chassisPerCab
	cabinetsPerRow  = 8
)

// NodeID maps a dense node index to its Cray location id.
func NodeID(i int) string {
	if i < 0 {
		panic(fmt.Sprintf("logsim: negative node index %d", i))
	}
	cab := i / nodesPerCabinet
	rem := i % nodesPerCabinet
	chassis := rem / (slotsPerChassis * nodesPerSlot)
	rem %= slotsPerChassis * nodesPerSlot
	slot := rem / nodesPerSlot
	node := rem % nodesPerSlot
	col := cab % cabinetsPerRow
	row := cab / cabinetsPerRow
	var buf [24]byte
	b := append(buf[:0], 'c')
	b = strconv.AppendInt(b, int64(col), 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(row), 10)
	b = append(b, 'c')
	b = strconv.AppendInt(b, int64(chassis), 10)
	b = append(b, 's')
	b = strconv.AppendInt(b, int64(slot), 10)
	b = append(b, 'n')
	return string(strconv.AppendInt(b, int64(node), 10))
}

// ParseNodeID inverts NodeID, returning the dense index. It reports an
// error for ids that do not match the Cray format.
func ParseNodeID(id string) (int, error) {
	var col, row, chassis, slot, node int
	n, err := fmt.Sscanf(id, "c%d-%dc%ds%dn%d", &col, &row, &chassis, &slot, &node)
	if err != nil || n != 5 {
		return 0, fmt.Errorf("logsim: bad node id %q", id)
	}
	if col < 0 || col >= cabinetsPerRow || row < 0 || chassis < 0 || chassis >= chassisPerCab ||
		slot < 0 || slot >= slotsPerChassis || node < 0 || node >= nodesPerSlot {
		return 0, fmt.Errorf("logsim: node id %q out of range", id)
	}
	cab := row*cabinetsPerRow + col
	return cab*nodesPerCabinet +
		chassis*slotsPerChassis*nodesPerSlot +
		slot*nodesPerSlot + node, nil
}

// Location spells out the physical position of a node id in the format
// the paper's warning uses ("node X located in Y").
func Location(id string) (string, error) {
	var col, row, chassis, slot, node int
	n, err := fmt.Sscanf(id, "c%d-%dc%ds%dn%d", &col, &row, &chassis, &slot, &node)
	if err != nil || n != 5 {
		return "", fmt.Errorf("logsim: bad node id %q", id)
	}
	return fmt.Sprintf("cabinet %d-%d, chassis %d, blade %d, node %d", col, row, chassis, slot, node), nil
}
