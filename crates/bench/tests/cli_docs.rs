//! docs/CLI.md documents exactly what the flag table declares: each
//! command's section lists, in the first column of its flag tables,
//! every flag and alias of that command and nothing else.

use dtu_bench::cli::COMMANDS;
use std::collections::BTreeSet;

/// The section of `doc` whose heading names `command` in backticks, up
/// to the next heading.
fn section<'a>(doc: &'a str, command: &str) -> &'a str {
    let tag = format!("`{command}`");
    let start = doc
        .match_indices('#')
        .map(|(i, _)| i)
        .find(|&i| {
            (i == 0 || doc[..i].ends_with('\n')) && doc[i..].lines().next().unwrap().contains(&tag)
        })
        .unwrap_or_else(|| panic!("docs/CLI.md has no section headed {tag}"));
    let body = &doc[start..];
    let end = body.find("\n#").map_or(body.len(), |i| i + 1);
    &body[..end]
}

/// The flags and aliases named in the first column of `section`'s
/// table rows.
fn listed(section: &str) -> BTreeSet<String> {
    section
        .lines()
        .filter_map(|l| l.replace("\\|", "/").split('|').nth(1).map(str::to_string))
        .flat_map(|cell| {
            cell.split('`')
                .skip(1)
                .step_by(2)
                .flat_map(|code| code.split([' ', ',']))
                .filter(|w| w.starts_with('-'))
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn every_command_section_lists_exactly_its_flags() {
    let doc = include_str!("../../../docs/CLI.md");
    for command in COMMANDS {
        let declared: BTreeSet<String> = command
            .flags()
            .flat_map(|f| std::iter::once(f.name).chain(f.aliases.iter().copied()))
            .map(str::to_string)
            .collect();
        assert_eq!(
            listed(section(doc, command.name)),
            declared,
            "docs/CLI.md section for `{}`",
            command.name
        );
    }
}
