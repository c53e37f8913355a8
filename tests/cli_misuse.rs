//! `rlccd serve` and `rlccd daemon` refuse options they do not know and
//! values that do not parse: a non-zero exit with the subcommand's usage
//! line, before anything is loaded or bound.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rlccd"))
        .args(args)
        .output()
        .expect("run rlccd");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn serve_and_daemon_reject_unknown_flags_and_unparsable_values() {
    let cases: &[(&str, &[&str], &str)] = &[
        ("serve", &["--checkpoint", "ckpt", "--reactor"], "--reactor"),
        (
            "serve",
            &["--checkpoint", "ckpt", "--port", "abc"],
            "--port",
        ),
        (
            "serve",
            &["--checkpoint", "ckpt", "--queue", "-3"],
            "--queue",
        ),
        ("serve", &["--checkpoint"], "--checkpoint"),
        (
            "daemon",
            &["--checkpoint", "ckpt", "--reactor"],
            "--reactor",
        ),
        (
            "daemon",
            &["--checkpoint", "ckpt", "--port", "abc"],
            "--port",
        ),
        ("daemon", &["--checkpoint", "ckpt", "--rho", "x"], "--rho"),
        ("daemon", &["--bogus", "1"], "--bogus"),
    ];
    for (cmd, rest, culprit) in cases {
        let mut args = vec![*cmd];
        args.extend_from_slice(rest);
        let (ok, stderr) = run(&args);
        assert!(!ok, "rlccd {args:?} must fail");
        assert!(
            stderr.contains(culprit),
            "rlccd {args:?} must name {culprit}: {stderr}"
        );
        let usage = format!("usage: rlccd {cmd} ");
        assert!(
            stderr.contains(&usage),
            "rlccd {args:?} must print the {cmd} usage line: {stderr}"
        );
    }
}
