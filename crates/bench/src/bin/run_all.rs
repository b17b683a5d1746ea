//! Runs every experiment in sequence (the full reproduction pass).
fn main() {
    let scale = mlexray_bench::support::Scale::from_env();
    println!("{}\n", mlexray_bench::experiments::table1::run());
    println!("{}\n", mlexray_bench::experiments::fig4::run(&scale));
    println!("{}\n", mlexray_bench::experiments::fig5::run(&scale));
    println!("{}\n", mlexray_bench::experiments::fig6::run(&scale));
    println!("{}\n", mlexray_bench::experiments::fig3::run(&scale));
    println!("{}\n", mlexray_bench::experiments::appendix_a::run(&scale));
    println!("{}\n", mlexray_bench::experiments::table2::run(&scale));
    println!("{}\n", mlexray_bench::experiments::table4::run(&scale));
    println!(
        "{}\n",
        mlexray_bench::experiments::table3_5::run_int8(&scale)
    );
    println!(
        "{}\n",
        mlexray_bench::experiments::table3_5::run_float(&scale)
    );
}
