"""Baseline comparators: CPU (Table 4) and the Zhang FPGA'15 design (Fig. 9)."""
