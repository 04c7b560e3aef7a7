// Package experiments holds the designs the command-line tools run, as
// checked-in spec and sweep documents (see internal/spec):
//
//   - des_accuracy.json: the paper's ALS split (an RTL INCR8 write
//     stream in the accelerator into a TL SRAM in the simulator) swept
//     over injected prediction accuracy at LOB 64, Table 2's shape;
//   - des_lob.json: the same design swept over LOB depth at organic
//     accuracy;
//   - duplex.json: a DMA copying between the domains beside a CPU and
//     an IRQ peripheral, so the leader flips with the data direction
//     (the run the Perfetto trace example records);
//   - dma-copy.json: a short DMA copy between the domains, small enough
//     to dump as waveforms with cmd/vcddump.
//
// Each file is also a valid input to `coemu -spec` and `sweep -grid`;
// cmd/tables reads the DES documents from FS without a flag.
package experiments

import "embed"

// FS holds every document in this directory, by file name.
//
//go:embed *.json
var FS embed.FS
