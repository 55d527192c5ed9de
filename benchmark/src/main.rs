//! The `benchmark` binary: installs the counting allocator (the
//! `stream.allocs_per_packet` metric reads its totals) and hands over to
//! the command line.

use idsbench_core::allocwatch::CountingAllocator;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn main() -> std::process::ExitCode {
    idsbench_benchmark::cli::main()
}
